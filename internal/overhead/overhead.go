// Package overhead models PrintQueue's resource costs: data-plane SRAM
// (Figure 14(b), Figure 15, the §7.2 queue-monitor figure) and
// control-plane read bandwidth (Figure 13's storage-overhead axis and
// "data exchange limit" feasibility line).
//
// The byte counts here are the hardware's — an 8-byte time-window cell, a
// 16-byte queue-monitor entry — not the simulator's. The reproduction keeps
// the full 5-tuple and 64-bit cycle and sequence numbers in its live
// registers, three machine words per record: timewindow.Reg is 24 bytes and
// qmonitor.Reg 48 (32 and 64 before the registers became integers), so a
// port's four UW register sets are 1.5 MB of time windows where the switch
// spends 0.5 MB.
package overhead

import (
	"printqueue/internal/core/qmonitor"
	"printqueue/internal/core/registers"
	"printqueue/internal/core/timewindow"
)

// Hardware-calibrated constants. A Tofino-class pipeline has on the order
// of tens of MB of SRAM usable by stateful registers; the exact figure is
// not public, so TotalSRAMBytes is calibrated such that the paper's
// reported utilisations (e.g. queue monitor = 12.81% for one port)
// reproduce.
const (
	// TWCellBytes is the register width of one time-window cell: a 32-bit
	// flow digest plus a 32-bit cycle ID.
	TWCellBytes = 8
	// QMEntryBytes is one queue-monitor entry: two halves of
	// (32-bit flow digest, 32-bit sequence number).
	QMEntryBytes = 16
	// TotalSRAMBytes is the modelled per-pipeline register SRAM budget,
	// calibrated so the paper's reported queue-monitor utilisation for a
	// single port (12.81%, end of §7.2) reproduces: a 32k-cell monitor at
	// granule 2 occupies 2 MiB across its four register sets, i.e. 12.5%
	// of 16 MiB.
	TotalSRAMBytes = 16 << 20 // 16 MiB
)

// TimeWindowSRAMBytes returns the data-plane SRAM of the time windows for
// the given per-port config and number of activated ports, including the
// double-buffered and special register sets (the Figure-8 layout allocates
// 4 sets: dp x flip).
func TimeWindowSRAMBytes(cfg timewindow.Config, ports int) int {
	partitions := registers.Layout{PortBits: registers.PortBitsFor(ports), IndexBits: int(cfg.K)}.Partitions()
	return 4 * partitions * cfg.T * cfg.Cells() * TWCellBytes
}

// QueueMonitorSRAMBytes returns the queue monitor's SRAM for the given
// config, ports and queues per port, across the 4 register sets.
func QueueMonitorSRAMBytes(cfg qmonitor.Config, ports, queuesPerPort int) int {
	slots := ports * queuesPerPort
	partitions := registers.PortBitsFor(slots)
	entries := 1
	for 1<<entries < cfg.Entries() {
		entries++
	}
	return 4 * (1 << partitions) * (1 << entries) * QMEntryBytes
}

// SRAMUtilization returns bytes/TotalSRAMBytes as a percentage.
func SRAMUtilization(bytes int) float64 {
	return float64(bytes) / float64(TotalSRAMBytes) * 100
}

// ControlPlaneMBps returns the control-plane read bandwidth one port's
// periodic polling consumes: a full snapshot (time windows + queue monitor)
// every set period, in MB/s. This is Figure 13's y-axis.
func ControlPlaneMBps(tw timewindow.Config, qm qmonitor.Config, queuesPerPort int) float64 {
	bytes := tw.EntriesPerSnapshot()*TWCellBytes + queuesPerPort*qm.EntriesPerSnapshot()*QMEntryBytes
	period := float64(tw.SetPeriod()) / 1e9 // seconds
	return float64(bytes) / period / 1e6
}

// FeasibleMBps is the modelled ceiling of the paper's Python analysis
// program + PCIe path: the rough data-exchange limit line of Figure 13.
// Above it, registers cannot be read before they age out.
const FeasibleMBps = 30.0

// Feasible reports whether a configuration's polling fits the budget.
func Feasible(tw timewindow.Config, qm qmonitor.Config, queuesPerPort int) bool {
	return ControlPlaneMBps(tw, qm, queuesPerPort) <= FeasibleMBps
}
