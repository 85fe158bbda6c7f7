module printqueue/cmd/pqbench

go 1.22

require printqueue v0.0.0

replace printqueue => ../..
