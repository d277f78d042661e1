// Package sim models the Section 5.4 scenario: a DW cluster with limited
// spare capacity, running a background workload of reporting queries while
// the multistore system uses it as an accelerator. A fluid resource model
// shares each resource (IO, CPU) proportionally among consumers: when total
// demand exceeds capacity, every consumer stretches by the overload factor.
// The simulator replays a multistore run's event timeline (HV execution,
// working-set transfers T, reorganization transfers R, DW query execution
// Q) against a configurable background load and reports both directions of
// interference: the slowdown of the background reporting queries and the
// slowdown of the multistore workload.
package sim

import "math"

// EventKind classifies timeline events by their DW resource demand.
type EventKind int

// Event kinds.
const (
	// EventHV is query processing inside the big data store: no DW
	// demand.
	EventHV EventKind = iota
	// EventTransfer is an on-the-fly working-set migration (T in the
	// paper's Figure 9): the DW bulk load saturates IO briefly.
	EventTransfer
	// EventReorg is a reorganization-phase view movement (R): same IO
	// pressure as a transfer.
	EventReorg
	// EventDW is multistore query execution inside DW (Q): modest IO and
	// CPU demand.
	EventDW
	// EventIdle is time with no multistore activity.
	EventIdle
	// EventRecovery is time spent in fault recovery (retry backoff,
	// re-executed HV stages, fallback re-runs): the injected faults stall
	// the multistore side, so DW sees no demand.
	EventRecovery
	// EventDegraded is query processing on the forced HV-only path
	// (multistore.System.RunDegraded): by construction it places no
	// demand on DW.
	EventDegraded
)

// Event is one phase of the multistore run.
type Event struct {
	Kind EventKind
	// Seconds is the phase duration under an idle DW.
	Seconds float64
}

// Demand returns the (IO, CPU) demand fractions this event places on DW.
// Bulk loads are admission-controlled by the warehouse, so a transfer
// does not saturate IO outright; it still presses well beyond typical
// spare capacity, producing the brief latency spikes of Figure 9.
func (e Event) Demand() (io, cpu float64) {
	switch e.Kind {
	case EventTransfer, EventReorg:
		return 0.60, 0.25
	case EventDW:
		return 0.25, 0.45
	default:
		return 0, 0
	}
}

// Background describes the DW's own reporting workload.
type Background struct {
	// Name labels the scenario (e.g. "40% spare IO").
	Name string
	// IOShare / CPUShare are the fractions of each resource the
	// reporting queries consume when unimpeded (0.6 leaves 40% spare).
	IOShare, CPUShare float64
	// BaseLatency is the reporting query's latency on an otherwise idle
	// DW (1.06 s for the paper's q3).
	BaseLatency float64
}

// Scenarios returns the four spare-capacity configurations of Table 2 with
// the paper's published base latencies (q3 = 1.06 s on an idle DW).
// IO-bound scenarios use the q3 profile, CPU-bound use q83.
func Scenarios() []Background {
	return ScenariosWithLatencies(1.06, 0.94)
}

// ScenariosWithLatencies builds the four configurations from measured
// reporting-query latencies: q3Lat for the IO-bound scenarios, q83Lat for
// the CPU-bound ones. Running extra query instances to consume more
// capacity also lengthens each instance (the 20%-spare scenarios run three
// concurrent instances instead of one, sharing the same resources).
func ScenariosWithLatencies(q3Lat, q83Lat float64) []Background {
	return []Background{
		{Name: "IO 40% spare", IOShare: 0.60, CPUShare: 0.20, BaseLatency: q3Lat},
		{Name: "IO 20% spare", IOShare: 0.80, CPUShare: 0.25, BaseLatency: q3Lat * 1.24},
		{Name: "CPU 40% spare", IOShare: 0.20, CPUShare: 0.60, BaseLatency: q83Lat},
		{Name: "CPU 20% spare", IOShare: 0.25, CPUShare: 0.80, BaseLatency: q83Lat * 1.26},
	}
}

// Sample is one point of the Figure 9 timelines.
type Sample struct {
	// T is simulated seconds since the start of the run.
	T float64
	// IO and CPU are total resource consumption fractions (capped at 1).
	IO, CPU float64
	// BgLatency is the background query latency at this instant.
	BgLatency float64
	// Kind is the active multistore phase.
	Kind EventKind
}

// Outcome aggregates one scenario's simulation.
type Outcome struct {
	Background Background
	Samples    []Sample
	// BgSlowdownPct is the percent increase of the background queries'
	// average latency caused by the multistore workload.
	BgSlowdownPct float64
	// MsSlowdownPct is the percent increase of the multistore workload's
	// total time (TTI) caused by the background workload; only the
	// DW-dependent phases stretch, so this stays small.
	MsSlowdownPct float64
	// AvgBgLatency is the overall average background latency during the
	// run.
	AvgBgLatency float64
	// PeakBgLatency is the worst instantaneous background latency.
	PeakBgLatency float64
}

// overload returns the stretch factor for a resource: total demand beyond
// capacity slows every consumer proportionally.
func overload(total float64) float64 {
	if total <= 1 {
		return 1
	}
	return total
}

// Simulate replays the event timeline against the background load.
// sampleEvery controls the Figure 9 sampling granularity in simulated
// seconds (the paper samples every 10 s).
func Simulate(events []Event, bg Background, sampleEvery float64) *Outcome {
	if sampleEvery <= 0 {
		sampleEvery = 10
	}
	out := &Outcome{Background: bg}

	var now float64
	var bgWeighted float64 // integral of bg latency over time
	var msExtra, totalBase float64

	for _, e := range events {
		io, cpu := e.Demand()
		totalIO := bg.IOShare + io
		totalCPU := bg.CPUShare + cpu
		// The background query's latency stretches by the worst
		// contended resource.
		stretch := math.Max(overload(totalIO), overload(totalCPU))
		lat := bg.BaseLatency * stretch

		// The multistore phase itself also stretches when it depends
		// on DW resources.
		dur := e.Seconds
		totalBase += e.Seconds
		if io > 0 || cpu > 0 {
			dur = e.Seconds * stretch
			msExtra += dur - e.Seconds
		}

		// Emit samples across the (possibly stretched) phase.
		for t := 0.0; t < dur; t += sampleEvery {
			out.Samples = append(out.Samples, Sample{
				T:         now + t,
				IO:        math.Min(totalIO, 1),
				CPU:       math.Min(totalCPU, 1),
				BgLatency: lat,
				Kind:      e.Kind,
			})
		}
		bgWeighted += lat * dur
		if lat > out.PeakBgLatency {
			out.PeakBgLatency = lat
		}
		now += dur
	}
	if now > 0 {
		out.AvgBgLatency = bgWeighted / now
		out.BgSlowdownPct = 100 * (out.AvgBgLatency - bg.BaseLatency) / bg.BaseLatency
		if out.BgSlowdownPct < 0 {
			out.BgSlowdownPct = 0
		}
	}
	if totalBase > 0 {
		out.MsSlowdownPct = 100 * msExtra / totalBase
	}
	return out
}

// TotalSeconds returns the timeline's duration under an idle DW.
func TotalSeconds(events []Event) float64 {
	var s float64
	for _, e := range events {
		s += e.Seconds
	}
	return s
}
