package fleet

import (
	"fmt"
	"time"

	"printqueue/internal/flow"
)

// Culprit is one flow ranked as contributing to a hop's queue buildup.
type Culprit struct {
	Flow  flow.Key
	Count float64
}

// HopDiagnosis is one hop's contribution to a path diagnosis: the raw
// query outcome plus its top-k culprit ranking (empty when the hop
// failed or saw no traffic in the interval).
type HopDiagnosis struct {
	HopResult
	Culprits []Culprit
}

// PathDiagnosis correlates one victim's interval across every hop of its
// path: per hop, the flows that shared the victim's queues, ranked by
// packet count (the paper's time-window answer to "who delayed this
// packet, and where").
type PathDiagnosis struct {
	// Victim labels the diagnosed packet or flow; informational.
	Victim string
	// Start and End bound the queried interval, [Start, End).
	Start, End uint64
	// Hops holds one entry per requested hop, in path order as requested.
	Hops []HopDiagnosis
	// Partial is true when at least one hop failed; the surviving hops'
	// rankings are still valid for their switches.
	Partial bool
	// Elapsed is the fan-out wall time.
	Elapsed time.Duration
}

// FailedHops lists the switch IDs of hops that returned an error.
func (d *PathDiagnosis) FailedHops() []string {
	var out []string
	for i := range d.Hops {
		if d.Hops[i].Err != nil {
			out = append(out, d.Hops[i].SwitchID)
		}
	}
	return out
}

// Diagnose fans the victim's interval out across the path and ranks the
// top-k culprit flows per hop, from the counts keyed by flow that each hop
// answered with. Hops that fail keep partial-result semantics: they appear
// in the report with their error and an empty ranking, and Partial is set.
func (c *Collector) Diagnose(victim string, hops []HopRef, start, end uint64, k int) (*PathDiagnosis, error) {
	if end <= start {
		return nil, fmt.Errorf("fleet: empty diagnosis interval [%d, %d)", start, end)
	}
	if k <= 0 {
		k = 10
	}
	t0 := time.Now()
	results := c.QueryPath(hops, start, end)
	d := &PathDiagnosis{
		Victim: victim,
		Start:  start,
		End:    end,
		Hops:   make([]HopDiagnosis, len(results)),
	}
	for i, res := range results {
		hd := HopDiagnosis{HopResult: res}
		if res.Err == nil && len(res.Flows) > 0 {
			top := res.Flows.TopK(k)
			hd.Culprits = make([]Culprit, len(top))
			for j, e := range top {
				hd.Culprits[j] = Culprit{Flow: e.Flow, Count: e.Count}
			}
		}
		if hd.Err != nil {
			d.Partial = true
		}
		d.Hops[i] = hd
	}
	d.Elapsed = time.Since(t0)
	return d, nil
}
