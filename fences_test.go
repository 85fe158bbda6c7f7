package printqueue

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fence is a pattern that must not appear in the repository's non-test Go
// source: a design decision that a later change could quietly undo while
// every answer stays the same.
type fence struct {
	name string
	// root is the file, or the directory tree, scanned (relative to the
	// repository root).
	root    string
	pattern *regexp.Regexp
	// allow lists the files (slash paths from the root) the pattern may
	// appear in.
	allow []string
}

var fences = []fence{
	{
		// Intervals are answered by timewindow.FoldInterval alone; the
		// cell-by-cell walk exists for tests to compare it with.
		name: "the scan stays an oracle", root: ".",
		pattern: regexp.MustCompile(`AccumulateScanInto`),
	},
	{
		// The listener speaks binary frames and MuxClient is its client:
		// no JSON codec in the control plane ...
		name: "one query protocol stays one: no JSON in control", root: "internal/core/control",
		pattern: regexp.MustCompile(`"encoding/json"`),
	},
	{
		// ... and neither the line handler nor the second client comes
		// back (MuxQueryClient is not a match).
		name: "one query protocol stays one: one handler, one client", root: ".",
		pattern: regexp.MustCompile(`\bhandleJSON\b|\bQueryClient\b`),
	},
	{
		// Every query travels in one request frame and is answered in one
		// reply frame: neither the single-query ops, the batch ops, nor
		// their traced twins come back.
		name: "one request frame, one reply frame", root: "internal/core/control",
		pattern: regexp.MustCompile(`\bop(Query|Reply|Batch)\w*|\bop[A-Z]\w*T\b`),
	},
	{
		// A hop answer carries its counts keyed by flow from the fold to
		// the ranking. The collector parses a flow key only where a
		// switch's reply enters it (fleet.go), never to rank it.
		name: "a diagnosis ranks what was folded", root: "internal/fleet",
		pattern: regexp.MustCompile(`ParseKey`),
		allow:   []string{"internal/fleet/fleet.go"},
	},
	{
		// The query server is a slot count: a query executes on the
		// goroutine that submitted it, and live.go starts no goroutine.
		name: "a query runs where it was asked", root: "internal/core/control/live.go",
		pattern: regexp.MustCompile(`^\s*go `),
	},
	{
		// Concurrent queries run side by side, one query is never split:
		// an interval folds into one accumulator on the goroutine running
		// it, so neither the shard threshold, the shard and merge spans,
		// the fan-out counter nor the accumulator merge comes back.
		name: "an interval fold runs on one goroutine", root: "internal/core",
		pattern: regexp.MustCompile(`\bparallelMinRun\b|"server\.(shard|merge)"|parallel_fanouts|func \(a \*Accumulator\) Merge\b`),
	},
}

// TestFences scans the non-test Go files under each fence's root, line by
// line, and fails on every line its pattern matches outside the files it
// allows. Hidden directories (.git, build output) are skipped.
func TestFences(t *testing.T) {
	for _, f := range fences {
		allowed := map[string]bool{}
		for _, a := range f.allow {
			allowed[a] = true
		}
		var hits []string
		err := filepath.WalkDir(f.root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path != f.root && strings.HasPrefix(d.Name(), ".") {
					return filepath.SkipDir
				}
				return nil
			}
			path = filepath.ToSlash(path)
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || allowed[path] {
				return nil
			}
			file, err := os.Open(path)
			if err != nil {
				return err
			}
			defer file.Close()
			sc := bufio.NewScanner(file)
			for n := 1; sc.Scan(); n++ {
				if f.pattern.MatchString(sc.Text()) {
					hits = append(hits, fmt.Sprintf("%s:%d: %s", path, n, strings.TrimSpace(sc.Text())))
				}
			}
			return sc.Err()
		})
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		for _, h := range hits {
			t.Errorf("fence %q broken: %s", f.name, h)
		}
	}
}
