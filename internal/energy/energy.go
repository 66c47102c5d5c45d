// Package energy accounts the electrical energy consumed by the simulated
// host, using the processor profile's power model. It quantifies the
// paper's qualitative claims: a variable-credit scheduler that pins the
// frequency at maximum under thrashing load "wastes energy from the point
// of view of the provider" (Section 3.2), while PAS keeps the frequency —
// and hence the power draw — low whenever the absolute load allows.
//
// Accounting is exact integer fixed-point: power is quantized once per
// (P-state, utilization) to integer microwatts, so one interval's energy
// is the integer product microwatts × microseconds = picojoules. Integer
// multiplication distributes over addition, so a batched horizon's energy
// equals the sum of its quanta bit-for-bit — the property the
// batched==reference equivalence tests assert with exact equality.
// Conversion to floating-point joules happens only at the report edge
// (Joules, AveragePower, Savings).
package energy

import (
	"fmt"
	"math"

	"pasched/internal/cpufreq"
	"pasched/internal/sim"
)

// picoPerJoule is the Energy fixed point: 1e12 picojoules per joule.
const picoPerJoule = int64(1e12)

// Energy is an exact amount of electrical energy: whole joules plus a
// picojoule remainder in [0, 1e12). The two-word form keeps cross-host
// reductions (cluster, datacenter and fleet totals) exact and
// overflow-safe far beyond what a single int64 of picojoules could carry;
// addition is associative and commutative, so parallel-machine rollups
// are order-independent by construction. Normalized Energy values compare
// with ==.
type Energy struct {
	j  int64 // whole joules
	pj int64 // picojoule remainder, in [0, picoPerJoule)
}

// EnergyFromPicojoules returns the normalized Energy for an integer
// picojoule count.
func EnergyFromPicojoules(pj int64) Energy {
	return Energy{j: pj / picoPerJoule, pj: pj % picoPerJoule}
}

// AddPicojoules returns e plus an integer picojoule count. A count below
// one joule, what a single quantum draws, adds without normalizing.
func (e Energy) AddPicojoules(pj int64) Energy {
	if pj < 0 || pj >= picoPerJoule {
		return e.Add(EnergyFromPicojoules(pj))
	}
	return e.Add(Energy{pj: pj})
}

// Add returns the exact sum e + o.
func (e Energy) Add(o Energy) Energy {
	j, pj := e.j+o.j, e.pj+o.pj
	if pj >= picoPerJoule {
		j++
		pj -= picoPerJoule
	}
	return Energy{j: j, pj: pj}
}

// Sub returns the exact difference e - o, used for interval deltas
// (later reading minus earlier reading of the same meter).
func (e Energy) Sub(o Energy) Energy {
	j, pj := e.j-o.j, e.pj-o.pj
	if pj < 0 {
		j--
		pj += picoPerJoule
	}
	return Energy{j: j, pj: pj}
}

// Joules returns the energy in floating-point joules — the report-edge
// conversion.
func (e Energy) Joules() float64 {
	return float64(e.j) + float64(e.pj)/float64(picoPerJoule)
}

// Meter integrates power draw over simulated time. The power model
// coefficients are precomputed at construction so the per-quantum Add on
// the simulation hot path involves no map operations or profile lookups;
// the quantized microwatt power matches cpufreq.Profile.Power to within
// half a microwatt. The two utilizations every batched and idle stretch
// charges, 0 and 1, are quantized once per P-state.
type Meter struct {
	prof    *cpufreq.Profile
	total   Energy
	freqs   []cpufreq.Freq // ladder frequencies, by P-state index
	dyn     []float64      // dynamic power coefficient in watts, by P-state index
	idleUW  []int64        // powerMicrowatts(i, 0), by P-state index
	busyUW  []int64        // powerMicrowatts(i, 1), by P-state index
	byState []Energy       // energy, by P-state index
	lastF   cpufreq.Freq   // index cache: frequencies change rarely
	lastI   int
	elapsed sim.Time
}

// NewMeter returns a meter for the given processor profile.
func NewMeter(prof *cpufreq.Profile) (*Meter, error) {
	if err := prof.Validate(); err != nil {
		return nil, fmt.Errorf("energy: %w", err)
	}
	m := &Meter{
		prof:    prof,
		freqs:   make([]cpufreq.Freq, prof.Levels()),
		dyn:     make([]float64, prof.Levels()),
		idleUW:  make([]int64, prof.Levels()),
		busyUW:  make([]int64, prof.Levels()),
		byState: make([]Energy, prof.Levels()),
		lastI:   -1,
	}
	for i, s := range prof.States {
		fGHz := float64(s.Freq) / 1000
		m.freqs[i] = s.Freq
		m.dyn[i] = prof.DynCoeff * s.Voltage * s.Voltage * fGHz
		m.idleUW[i] = m.powerMicrowatts(i, 0)
		m.busyUW[i] = m.powerMicrowatts(i, 1)
	}
	return m, nil
}

// powerMicrowatts quantizes the power draw at P-state index i and
// utilization util (clamped to [0,1]) to integer microwatts. The
// quantization is a pure function of (i, util), so identical intervals —
// whether charged in one batched Add or quantum by quantum — integrate
// identical integer power.
func (m *Meter) powerMicrowatts(i int, util float64) int64 {
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	p := m.prof.StaticPower + m.dyn[i]*(m.prof.IdleFactor+(1-m.prof.IdleFactor)*util)
	return int64(math.Round(p * 1e6))
}

// Add integrates one interval of length dt at frequency f and utilization
// util in [0,1]. Unsupported frequencies or negative intervals are
// reported as errors. The interval's energy is the exact integer product
// microwatts × microseconds, so Add(n·q) equals n additions of Add(q)
// bit-for-bit.
func (m *Meter) Add(dt sim.Time, f cpufreq.Freq, util float64) error {
	if dt < 0 {
		return fmt.Errorf("energy: negative interval %v", dt)
	}
	i := m.lastI
	if f != m.lastF || i < 0 {
		var err error
		i, err = m.prof.Index(f)
		if err != nil {
			return fmt.Errorf("energy: %w", err)
		}
		m.lastF, m.lastI = f, i
	}
	var uw int64
	switch util {
	case 0:
		uw = m.idleUW[i]
	case 1:
		uw = m.busyUW[i]
	default:
		uw = m.powerMicrowatts(i, util)
	}
	pj := uw * int64(dt)
	m.total = m.total.AddPicojoules(pj)
	m.byState[i] = m.byState[i].AddPicojoules(pj)
	m.elapsed += dt
	return nil
}

// Total returns the exact integrated energy. Cross-host reductions sum
// these values (integer, order-independent) and convert to joules only at
// the report edge.
func (m *Meter) Total() Energy { return m.total }

// Joules returns the total energy consumed in floating-point joules.
func (m *Meter) Joules() float64 { return m.total.Joules() }

// Elapsed returns the total integrated time.
func (m *Meter) Elapsed() sim.Time { return m.elapsed }

// AveragePower returns the mean power draw in watts over the integrated
// time, or 0 if nothing was integrated.
func (m *Meter) AveragePower() float64 {
	if m.elapsed <= 0 {
		return 0
	}
	return m.Joules() / m.elapsed.Seconds()
}

// JoulesAt returns the energy consumed while at frequency f.
func (m *Meter) JoulesAt(f cpufreq.Freq) float64 {
	for i, lf := range m.freqs {
		if lf == f {
			return m.byState[i].Joules()
		}
	}
	return 0
}

// Savings returns the relative energy saving of this meter against a
// baseline meter: (baseline - this) / baseline. It returns 0 when the
// baseline consumed nothing.
func Savings(baseline, m *Meter) float64 {
	if baseline == nil || m == nil || baseline.Joules() <= 0 {
		return 0
	}
	return (baseline.Joules() - m.Joules()) / baseline.Joules()
}
