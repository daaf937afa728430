package device

import (
	"fmt"
	"io"
	"sort"
)

// Stats is a point-in-time snapshot of the device, for monitoring and
// examples.
type Stats struct {
	// Uptime is the virtual time since (first) boot.
	UptimeSeconds float64
	Processes     int
	RunningApps   int
	Services      int
	SoftReboots   int
	LMKKills      int
	// SystemServerJGR is the current table size; SystemServerPeakJGR the
	// historical maximum of the current incarnation.
	SystemServerJGR     int
	SystemServerPeakJGR int
	JGRCap              int
	Transactions        uint64
	// IPC-log telemetry health (see binder.LogStats): how many records
	// the extended driver generated, how many were lost to injected
	// drops or ring overflow, and how many log reads failed.
	IPCLogSeq         uint64
	IPCLogDropped     uint64
	IPCLogRingDropped uint64
	IPCLogReadErrors  uint64
	// Flight-recorder health (both zero when tracing is off): spans
	// currently retained and spans ring eviction overwrote.
	// TraceSpanDrops is a "no silent caps" counter — nonzero means
	// exported traces are missing their oldest spans.
	TraceSpans     int
	TraceSpanDrops uint64
	// Defender carries the defense layer's self-reported health when one
	// is attached (nil otherwise): last-window coverage, whether fallback
	// attribution was used, and the cumulative degradation counters.
	Defender *DefenderHealth
}

// Stats snapshots the device.
func (d *Device) Stats() Stats {
	running := 0
	for _, a := range d.apps.Installed() {
		if a.Running() {
			running++
		}
	}
	ls := d.driver.LogStats()
	vm := d.SystemServer().VM()
	var health *DefenderHealth
	if d.defenderHealth != nil {
		h := d.defenderHealth()
		health = &h
	}
	return Stats{
		UptimeSeconds:       d.clock.Now().Seconds(),
		Processes:           d.kern.RunningCount(),
		RunningApps:         running,
		Services:            len(d.services),
		SoftReboots:         d.kern.SoftReboots(),
		LMKKills:            d.kern.LMKKills(),
		SystemServerJGR:     vm.GlobalRefCount(),
		SystemServerPeakJGR: vm.PeakGlobalRefCount(),
		JGRCap:              vm.MaxGlobal(),
		Transactions:        d.driver.TotalTransactions(),
		IPCLogSeq:           ls.Seq,
		IPCLogDropped:       ls.DroppedRate,
		IPCLogRingDropped:   ls.DroppedRing,
		IPCLogReadErrors:    ls.ReadErrors,
		TraceSpans:          d.rec.Len(),
		TraceSpanDrops:      d.rec.Dropped(),
		Defender:            health,
	}
}

// DumpState writes a dumpsys-style report: device stats, the busiest
// services by retained registrations, and the process table summary.
func (d *Device) DumpState(w io.Writer) {
	s := d.Stats()
	fmt.Fprintf(w, "DEVICE STATE (t=%.1fs)\n", s.UptimeSeconds)
	fmt.Fprintf(w, "  processes: %d (%d user apps)  services: %d  soft reboots: %d  lmk kills: %d\n",
		s.Processes, s.RunningApps, s.Services, s.SoftReboots, s.LMKKills)
	fmt.Fprintf(w, "  system_server JGR: %d / %d (peak %d)  binder transactions: %d\n",
		s.SystemServerJGR, s.JGRCap, s.SystemServerPeakJGR, s.Transactions)
	if s.IPCLogSeq > 0 {
		fmt.Fprintf(w, "  ipc log: %d records, %d dropped, %d ring-evicted, %d read errors\n",
			s.IPCLogSeq, s.IPCLogDropped, s.IPCLogRingDropped, s.IPCLogReadErrors)
	}
	if s.TraceSpans > 0 || s.TraceSpanDrops > 0 {
		fmt.Fprintf(w, "  flight recorder: %d spans held, %d evicted\n", s.TraceSpans, s.TraceSpanDrops)
	}
	if h := s.Defender; h != nil {
		fmt.Fprintf(w, "  defender: %d detections, last coverage %.2f, fallback %v, %d read retries, %d analysis restarts, %d guard stops\n",
			h.Detections, h.Coverage, h.FallbackUsed, h.ReadRetries, h.AnalysisRestarts, h.GuardStops)
	}

	type svcLoad struct {
		name    string
		entries int
		calls   uint64
	}
	var loads []svcLoad
	for _, svc := range d.services {
		if n := svc.TotalEntries(); n > 0 || svc.Calls() > 0 {
			loads = append(loads, svcLoad{name: svc.Name(), entries: n, calls: svc.Calls()})
		}
	}
	sort.Slice(loads, func(i, j int) bool {
		if loads[i].entries != loads[j].entries {
			return loads[i].entries > loads[j].entries
		}
		return loads[i].name < loads[j].name
	})
	fmt.Fprintf(w, "  active services (retained registrations / calls):\n")
	for i, l := range loads {
		if i == 10 {
			fmt.Fprintf(w, "    ... and %d more\n", len(loads)-10)
			break
		}
		fmt.Fprintf(w, "    %-24s %6d entries %8d calls\n", l.name, l.entries, l.calls)
	}

	fmt.Fprintf(w, "  app processes:\n")
	apps := d.apps.Installed()
	shown := 0
	for _, a := range apps {
		if !a.Running() {
			continue
		}
		if shown == 10 {
			fmt.Fprintf(w, "    ... and more\n")
			break
		}
		p := a.Proc()
		fmt.Fprintf(w, "    uid %-6d %-28s pid %-5d adj %-4d JGR %d\n",
			a.Uid(), a.Package(), p.Pid(), p.OomScoreAdj(), p.VM().GlobalRefCount())
		shown++
	}
	if shown == 0 {
		fmt.Fprintf(w, "    (none running)\n")
	}
}
