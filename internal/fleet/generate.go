package fleet

import (
	"fmt"
	"math"

	"pasched/internal/sim"
	"pasched/internal/workload"
)

// classMix is one VM class with its share of the generated population.
type classMix struct {
	class VMClass
	// weight is the relative frequency of the class.
	weight float64
}

// defaultClassMix is the generated population: a typical hosting
// estate of many small mostly-idle services, fewer medium ones, and a
// handful of large busy VMs.
var defaultClassMix = []classMix{
	{class: VMClass{Name: "small", CreditPct: 10, MemoryMB: 1024}, weight: 6},
	{class: VMClass{Name: "medium", CreditPct: 20, MemoryMB: 2048}, weight: 3},
	{class: VMClass{Name: "large", CreditPct: 40, MemoryMB: 4096}, weight: 1},
}

// GenConfig configures the synthetic trace generator. The class mix is
// fixed (small, medium and large VMs in a 6:3:1 ratio), lifetimes are
// capped at max(4 x Horizon, 4 x MeanLifetime), and the diurnal day is
// Horizon/2 long, so the waves run two full cycles over the trace.
type GenConfig struct {
	// Seed seeds the generator; the same seed yields the same trace.
	Seed uint64
	// Arrivals is the number of VM lifecycles to generate. Required.
	Arrivals int
	// Horizon bounds arrival times: VMs arrive in [0, Horizon). Required.
	Horizon sim.Time
	// MeanLifetime is the mean VM lifetime. Lifetimes are heavy-tailed
	// (bounded Pareto, alpha 1.5): most VMs are short-lived, a few run
	// for a large multiple of the mean. Default Horizon/10.
	MeanLifetime sim.Time
	// DiurnalAmplitude in [0, 1) scales the waves: intensity and activity
	// swing by this fraction around their means. Default 0.6.
	DiurnalAmplitude float64
	// BaseActivity is the mean fraction of its credit a VM demands;
	// default 0.5.
	BaseActivity float64
	// SegmentLen is the length of one demand-profile segment; each VM's
	// profile is piecewise-constant over segments of this length,
	// modulated by the diurnal wave plus per-segment jitter. Default 60 s
	// (0 keeps the default; negative disables segmentation, producing a
	// single constant-rate phase per VM).
	SegmentLen sim.Time
}

// withDefaults validates and fills the generator defaults.
func (cfg GenConfig) withDefaults() (GenConfig, error) {
	if cfg.Arrivals < 1 {
		return cfg, fmt.Errorf("fleet: generator needs at least 1 arrival, got %d", cfg.Arrivals)
	}
	if cfg.Horizon <= 0 {
		return cfg, fmt.Errorf("fleet: generator horizon %v not positive", cfg.Horizon)
	}
	if cfg.Horizon > sim.FromSeconds(maxTraceSeconds) {
		return cfg, fmt.Errorf("fleet: generator horizon %v beyond %g s", cfg.Horizon, maxTraceSeconds)
	}
	if cfg.MeanLifetime == 0 {
		cfg.MeanLifetime = cfg.Horizon / 10
	}
	if cfg.MeanLifetime <= 0 {
		return cfg, fmt.Errorf("fleet: mean lifetime %v not positive", cfg.MeanLifetime)
	}
	if cfg.DiurnalAmplitude == 0 {
		cfg.DiurnalAmplitude = 0.6
	}
	if cfg.DiurnalAmplitude < 0 || cfg.DiurnalAmplitude >= 1 {
		return cfg, fmt.Errorf("fleet: diurnal amplitude %v outside [0,1)", cfg.DiurnalAmplitude)
	}
	if cfg.BaseActivity == 0 {
		cfg.BaseActivity = 0.5
	}
	if cfg.BaseActivity < 0 || cfg.BaseActivity > 1 {
		return cfg, fmt.Errorf("fleet: base activity %v outside [0,1]", cfg.BaseActivity)
	}
	if cfg.SegmentLen == 0 {
		cfg.SegmentLen = 60 * sim.Second
	}
	return cfg, nil
}

// maxLifetime caps generated lifetimes: four horizons, or four mean
// lifetimes when the mean is longer.
func (cfg GenConfig) maxLifetime() sim.Time {
	return max(4*cfg.Horizon, 4*cfg.MeanLifetime)
}

// diurnalPeriod is the day length of the arrival-intensity and
// demand-activity waves.
func (cfg GenConfig) diurnalPeriod() sim.Time {
	return cfg.Horizon / 2
}

// paretoAlpha is the heavy-tail exponent of the lifetime distribution.
// Alpha in (1, 2) has a finite mean but infinite variance — the shape
// cloud VM lifetime studies report (most VMs short-lived, a fat tail of
// long-runners).
const paretoAlpha = 1.5

// mix64 is the splitmix64 finalizer: a bijective avalanche that turns
// the structured per-event seeds (seed xor scaled index) into
// well-separated RNG states.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// genSource streams the synthetic trace in arrival order without ever
// materializing it. Sorted arrivals come from the order-statistics
// identity u_(k) = (E_1+...+E_k)/(E_1+...+E_(N+1)) for iid Exp(1)
// spacings: one pass sums the N+1 spacings, a second pass replays the
// same draws (same seed) and emits each normalized prefix through the
// inverse of the diurnal cumulative intensity, so arrival k costs O(1)
// memory and the stream is already in (Arrive, Name) order. Per-event
// attributes (lifetime, class, demand jitter) come from an independent
// RNG lane keyed on the event index, so event k's attributes do not
// depend on the draws of the events before it.
type genSource struct {
	cfg         GenConfig
	classes     map[string]VMClass
	totalWeight float64
	width       int

	rng    *sim.RNG // pass-2 replay of the exponential spacings
	sum    float64  // total of the N+1 spacings from pass 1
	prefix float64  // running spacing prefix
	lamH   float64  // cumulative intensity at the horizon

	i          int
	prevArrive sim.Time
}

// GenerateStream returns the synthetic trace as a TraceSource emitting
// lazily: peak memory is O(1) in the arrival count, so a 10M-arrival
// trace can feed NewStream or WriteCSVStream directly. Arrivals follow
// a diurnal intensity wave over the horizon, lifetimes are heavy-tailed
// around the configured mean, classes are drawn from the weighted mix,
// and every VM carries a piecewise demand profile modulated by the same
// diurnal wave plus per-segment jitter. The stream is deterministic in
// the seed.
func GenerateStream(cfg GenConfig) (TraceSource, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	classes := make(map[string]VMClass, len(defaultClassMix))
	totalWeight := 0.0
	for _, m := range defaultClassMix {
		classes[m.class.Name] = m.class
		totalWeight += m.weight
	}
	// Pass 1: total of the N+1 exponential spacings. Pass 2 (Next)
	// replays the identical draws from a fresh RNG on the same seed.
	rng := sim.NewRNG(cfg.Seed)
	sum := 0.0
	for i := 0; i <= cfg.Arrivals; i++ {
		sum += rng.ExpFloat64()
	}
	s := &genSource{
		cfg:         cfg,
		classes:     classes,
		totalWeight: totalWeight,
		width:       len(fmt.Sprintf("%d", cfg.Arrivals)),
		rng:         sim.NewRNG(cfg.Seed),
		sum:         sum,
		lamH:        cumIntensity(float64(cfg.Horizon), cfg),
	}
	return s, nil
}

func (s *genSource) Classes() map[string]VMClass { return s.classes }
func (s *genSource) Horizon() sim.Time           { return s.cfg.Horizon }
func (s *genSource) Err() error                  { return nil }

func (s *genSource) Next() (VMEvent, bool) {
	if s.i >= s.cfg.Arrivals {
		return VMEvent{}, false
	}
	cfg := s.cfg
	s.prefix += s.rng.ExpFloat64()
	u := s.prefix / s.sum

	// Arrival by inverse transform of the cumulative diurnal intensity:
	// the k-th uniform order statistic mapped through Lambda^-1, so the
	// arrival density is proportional to 1 + A*sin(2*pi*t/P).
	arrive := sim.Time(invCumIntensity(u*s.lamH, cfg))
	if arrive < 0 {
		arrive = 0
	}
	if arrive >= cfg.Horizon {
		arrive = cfg.Horizon - 1
	}
	if arrive < s.prevArrive {
		// Float inversion can misorder adjacent arrivals by an ulp;
		// clamping keeps the stream sorted (names break the tie).
		arrive = s.prevArrive
	}
	s.prevArrive = arrive

	// Independent attribute lane per event: identical draws regardless
	// of how many events came before.
	lane := sim.NewRNG(mix64(cfg.Seed ^ uint64(s.i)*0x9e3779b97f4a7c15))

	// Bounded Pareto lifetime with mean MeanLifetime (for the
	// unbounded distribution): x_m = mean * (alpha-1)/alpha.
	xm := float64(cfg.MeanLifetime) * (paretoAlpha - 1) / paretoAlpha
	uLife := lane.Float64()
	life := sim.Time(xm * math.Pow(1-uLife, -1/paretoAlpha))
	if maxLife := cfg.maxLifetime(); life > maxLife {
		life = maxLife
	}
	if life < sim.Millisecond {
		life = sim.Millisecond
	}

	// Weighted class pick.
	pick := lane.Float64() * s.totalWeight
	class := defaultClassMix[len(defaultClassMix)-1].class
	for _, m := range defaultClassMix {
		if pick < m.weight {
			class = m.class
			break
		}
		pick -= m.weight
	}

	ev := VMEvent{
		Name:     fmt.Sprintf("vm%0*d", s.width, s.i),
		Class:    class.Name,
		Arrive:   arrive,
		Lifetime: life,
	}
	ev.Activity, ev.Demand = demandProfile(cfg, lane, class, arrive, arrive+life)
	s.i++
	return ev, true
}

// diurnalWave is the shared intensity/activity modulation: 1 plus a
// sine of the configured period, scaled by the amplitude.
func diurnalWave(cfg GenConfig, at sim.Time) float64 {
	return 1 + cfg.DiurnalAmplitude*math.Sin(2*math.Pi*at.Seconds()/cfg.diurnalPeriod().Seconds())
}

// cumIntensity is the integral of the diurnal wave from 0 to tau (tau
// in sim.Time units): tau + A*(P/2pi)*(1 - cos(2pi*tau/P)).
func cumIntensity(tau float64, cfg GenConfig) float64 {
	w := 2 * math.Pi / float64(cfg.diurnalPeriod())
	return tau + cfg.DiurnalAmplitude/w*(1-math.Cos(w*tau))
}

// invCumIntensity inverts cumIntensity on [0, Horizon] by Newton with a
// bisection safeguard. The derivative 1 + A*sin(w*tau) is at least
// 1-A > 0, so the function is strictly increasing and the iteration is
// safe; the bracket guarantees termination on any rounding pattern.
func invCumIntensity(target float64, cfg GenConfig) float64 {
	if target <= 0 {
		return 0
	}
	w := 2 * math.Pi / float64(cfg.diurnalPeriod())
	lo, hi := 0.0, float64(cfg.Horizon)
	tau := target // the identity part of Lambda makes this a good start
	if tau > hi {
		tau = hi
	}
	for iter := 0; iter < 64; iter++ {
		f := tau + cfg.DiurnalAmplitude/w*(1-math.Cos(w*tau)) - target
		if f > 0 {
			hi = tau
		} else if f < 0 {
			lo = tau
		} else {
			return tau
		}
		d := 1 + cfg.DiurnalAmplitude*math.Sin(w*tau)
		next := tau - f/d
		if next <= lo || next >= hi {
			next = 0.5 * (lo + hi)
		}
		if next == tau {
			break
		}
		tau = next
	}
	return tau
}

// demandProfile builds one VM's piecewise demand: segments of SegmentLen
// whose activity follows the diurnal wave with per-segment jitter. It
// returns the mean activity (the scalar the CSV format carries) and the
// phases.
func demandProfile(cfg GenConfig, rng *sim.RNG, class VMClass, start, end sim.Time) (float64, []workload.Phase) {
	if end <= start {
		return 0, nil
	}
	var phases []workload.Phase
	sumAct, sumDur := 0.0, 0.0
	seg := cfg.SegmentLen
	if seg < 0 {
		seg = end - start
	}
	for at := start; at < end; at += seg {
		segEnd := at + seg
		if segEnd > end {
			segEnd = end
		}
		jitter := 0.75 + 0.5*rng.Float64()
		act := cfg.BaseActivity * diurnalWave(cfg, at) * jitter / (1 + cfg.DiurnalAmplitude)
		if act > 1 {
			act = 1
		}
		if act < 0 {
			act = 0
		}
		rate := workload.ExactRate(ReferenceThroughput, class.CreditPct*act, workload.DefaultRequestCost)
		if rate > 0 {
			phases = append(phases, workload.Phase{Start: at, End: segEnd, Rate: rate})
		}
		dur := (segEnd - at).Seconds()
		sumAct += act * dur
		sumDur += dur
	}
	mean := 0.0
	if sumDur > 0 {
		mean = sumAct / sumDur
	}
	return mean, phases
}
