package experiments

import (
	"fmt"

	"printqueue/internal/core/control"
	"printqueue/internal/core/qmonitor"
	"printqueue/internal/flow"
	"printqueue/internal/groundtruth"
	"printqueue/internal/pktrec"
	"printqueue/internal/trace"
)

// Fig16DepthSample is one point of Figure 16(a): queue depth (cells) at an
// enqueue timestamp.
type Fig16DepthSample struct {
	EnqTS uint64
	Depth int
}

// Fig16Shares is the composition of one culprit class among the case
// study's three principals, as packet proportions (Figure 16(b)).
type Fig16Shares struct {
	Burst      float64
	Background float64
	NewTCP     float64
	Other      float64
}

// Fig16Result is the complete case study output.
type Fig16Result struct {
	Flows trace.CaseStudyFlows
	// Depth is the downsampled queue-depth series.
	Depth []Fig16DepthSample
	// BurstEndNs and CongestionEndNs quantify the paper's headline: the
	// burst lasts ~5 ms but its queuing persists far longer.
	BurstDurationNs      uint64
	CongestionDurationNs uint64
	// Victim is the diagnosed new-TCP packet.
	VictimEnq, VictimDeq uint64
	VictimDepth          int
	// The three culprit classes' composition.
	Direct, Indirect, Original Fig16Shares
	// OriginalBurst and OriginalBackground are the raw original-culprit
	// counts (the paper reports 5597:6096).
	OriginalBurst, OriginalBackground float64
}

// classify buckets counts into the case study principals.
func classify(c flow.Counts, fs trace.CaseStudyFlows) Fig16Shares {
	total := c.Total()
	if total == 0 {
		return Fig16Shares{}
	}
	var s Fig16Shares
	for k, n := range c {
		switch k {
		case fs.Burst:
			s.Burst += n
		case fs.Background:
			s.Background += n
		case fs.NewTCP:
			s.NewTCP += n
		default:
			s.Other += n
		}
	}
	s.Burst = s.Burst / total * 100
	s.Background = s.Background / total * 100
	s.NewTCP = s.NewTCP / total * 100
	s.Other = s.Other / total * 100
	return s
}

// Fig16 reproduces the §7.2 queue-monitor case study at the given time
// scale (1.0 = the paper's full 500 ms / 10000-datagram run). It diagnoses
// a high-delay packet of the late TCP flow and reports the composition of
// its direct, indirect, and original culprits.
func Fig16(scale float64) (*Fig16Result, error) {
	cfg := trace.DefaultCaseStudy(scale)
	pkts, fs, err := trace.CaseStudy(cfg)
	if err != nil {
		return nil, err
	}
	preset := Preset(trace.WS, 0, cfg.Seed) // MTU-class parameters
	run, err := Execute(pkts, RunConfig{
		LinkBps:     cfg.LinkBps,
		BufferCells: 120000,
		TW:          preset.TW,
		QM:          qmonitor.Config{MaxDepthCells: 131072, GranuleCells: 4},
		// Data-plane freezes during the congestion give the queue-monitor
		// query a snapshot near the diagnosis instant (the paper triggers
		// its case-study query mid-regime, Figure 16's star).
		DPTriggerDepth:        400,
		ReadRateEntriesPerSec: 50e6,
	})
	if err != nil {
		return nil, err
	}
	return fig16Analyze(run.GT, run.Sys, run.Port, fs)
}

// fig16Analyze derives the case-study outputs from a finished run.
func fig16Analyze(gt *groundtruth.Collector, sys *control.System, port int, fs trace.CaseStudyFlows) (*Fig16Result, error) {
	res := &Fig16Result{Flows: fs}

	// (a) depth series, downsampled to ~2000 points.
	n := gt.Len()
	stride := n / 2000
	if stride == 0 {
		stride = 1
	}
	for i := 0; i < n; i += stride {
		r := gt.Record(i)
		res.Depth = append(res.Depth, Fig16DepthSample{EnqTS: r.EnqTimestamp, Depth: int(r.EnqQdepth)})
	}

	// Burst duration: first to last burst-flow arrival.
	var burstStart, burstEnd uint64
	for i := 0; i < n; i++ {
		r := gt.Record(i)
		if r.Flow == fs.Burst {
			if burstStart == 0 {
				burstStart = r.EnqTimestamp
			}
			burstEnd = r.EnqTimestamp
		}
	}
	res.BurstDurationNs = burstEnd - burstStart

	// Congestion duration: from burst start until the queue first drains
	// back to (near) empty afterwards.
	congEnd := burstEnd
	for i := 0; i < n; i++ {
		r := gt.Record(i)
		if r.EnqTimestamp > burstStart && int(r.EnqQdepth) <= pktrec.Cells(int(r.Bytes)) {
			congEnd = r.EnqTimestamp
			if r.EnqTimestamp > burstEnd {
				break
			}
		}
	}
	if congEnd > burstStart {
		res.CongestionDurationNs = congEnd - burstStart
	}

	// Victim: the new TCP flow's packet with the deepest queue.
	victims := gt.SampleVictims(groundtruth.FlowIs(fs.NewTCP), 0)
	if len(victims) == 0 {
		return nil, fmt.Errorf("fig16: new TCP flow never dequeued")
	}
	vi := victims[0]
	for _, i := range victims {
		if gt.Record(i).EnqQdepth > gt.Record(vi).EnqQdepth {
			vi = i
		}
	}
	v := gt.Record(vi)
	res.VictimEnq, res.VictimDeq = v.EnqTimestamp, v.DeqTimestamp()
	res.VictimDepth = int(v.EnqQdepth)

	// Direct culprits: time-window query over the victim's residence.
	direct, err := sys.QueryInterval(port, v.EnqTimestamp, v.DeqTimestamp())
	if err != nil {
		return nil, err
	}
	res.Direct = classify(direct, fs)

	// Indirect culprits: the rest of the congestion regime.
	regime := gt.RegimeStart(vi)
	if regime < v.EnqTimestamp {
		indirect, err := sys.QueryInterval(port, regime, v.EnqTimestamp)
		if err != nil {
			return nil, err
		}
		res.Indirect = classify(indirect, fs)
	}

	// Original culprits: queue-monitor query at the victim's enqueue.
	orig, err := sys.QueryOriginal(port, 0, v.EnqTimestamp)
	if err != nil {
		return nil, err
	}
	res.Original = classify(orig, fs)
	res.OriginalBurst = orig[fs.Burst]
	res.OriginalBackground = orig[fs.Background]
	return res, nil
}
