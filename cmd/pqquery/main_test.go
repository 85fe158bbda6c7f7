package main

import (
	"io"
	"strings"
	"testing"

	"printqueue"
)

// TestParseArgs: a command line that cannot be run is refused before anything
// is dialled — in particular one that would print "no culprits" without
// having asked (-repeat below 1).
func TestParseArgs(t *testing.T) {
	for _, tc := range []struct {
		args    string
		wantErr string // substring; "" means accepted
		want    printqueue.BatchQuery
	}{
		{args: "interval -port 2 -start 5 -end 9", want: printqueue.BatchQuery{Kind: "interval", Port: 2, Start: 5, End: 9}},
		{args: "-repeat 3 original -port 1 -queue 2 -at 7", want: printqueue.BatchQuery{Kind: "original", Port: 1, Queue: 2, At: 7}},
		{args: "-batch"},
		{args: "-repeat 0 interval -port 0 -start 0 -end 1", wantErr: "-repeat 0"},
		{args: "-repeat -2 interval -port 0 -start 0 -end 1", wantErr: "-repeat -2"},
		{args: "-repeat 0 -batch", wantErr: "-repeat 0"},
		{args: "bogus -port 0", wantErr: `unknown query kind "bogus"`},
		{args: "interval -at 3", wantErr: "not defined: -at"},
		{args: "", wantErr: "no query given"},
		// The JSON line protocol and its flag are gone.
		{args: "-proto json interval -port 0 -start 0 -end 1", wantErr: "not defined: -proto"},
		{args: "-proto binary -batch", wantErr: "not defined: -proto"},
	} {
		o, err := parseArgs(strings.Fields(tc.args), io.Discard)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%q: refused: %v", tc.args, err)
			} else if o.query != tc.want {
				t.Errorf("%q: query %+v, want %+v", tc.args, o.query, tc.want)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%q: err = %v, want one containing %q", tc.args, err, tc.wantErr)
		}
	}
}
