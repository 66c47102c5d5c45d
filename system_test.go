package pasched_test

import (
	"math"
	"testing"

	"pasched"
)

func TestNewSystemDefaultsToPAS(t *testing.T) {
	sys, err := pasched.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if sys.PAS() == nil {
		t.Error("default system has no PAS scheduler")
	}
	if sys.CPU().Profile().Name != pasched.Optiplex755().Name {
		t.Errorf("default profile = %q", sys.CPU().Profile().Name)
	}
}

func TestQuickstartFlow(t *testing.T) {
	// The doc-comment quick start, verified.
	sys, err := pasched.NewSystem(pasched.WithPAS(), pasched.WithDom0())
	if err != nil {
		t.Fatal(err)
	}
	v20, err := sys.AddVM("V20", 20)
	if err != nil {
		t.Fatal(err)
	}
	v20.SetWorkload(pasched.CPUHog())
	if err := sys.Run(30 * pasched.Second); err != nil {
		t.Fatal(err)
	}
	if got := sys.CPU().Freq(); got != 1600 {
		t.Errorf("frequency = %v, want 1600 (underloaded host)", got)
	}
	cap, err := sys.PAS().EffectiveCap(v20.ID())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cap-33.34) > 0.2 {
		t.Errorf("effective cap = %.2f, want ~33.3", cap)
	}
	abs, _ := sys.Recorder().Series("V20_absolute_pct").MeanBetween(5, 30)
	if math.Abs(abs-20) > 1 {
		t.Errorf("V20 absolute load = %.2f%%, want ~20%%", abs)
	}
	if sys.Energy().Joules() <= 0 {
		t.Error("no energy accounted")
	}
	if sys.Now() != 30*pasched.Second {
		t.Errorf("Now = %v", sys.Now())
	}
}

func TestSchedulerOptionsAreExclusive(t *testing.T) {
	if _, err := pasched.NewSystem(pasched.WithPAS(), pasched.WithCreditScheduler()); err == nil {
		t.Error("PAS + credit accepted")
	}
	if _, err := pasched.NewSystem(pasched.WithCreditScheduler(), pasched.WithSEDFScheduler()); err == nil {
		t.Error("credit + sedf accepted")
	}
	if _, err := pasched.NewSystem(pasched.WithPAS(), pasched.WithPerformanceGovernor()); err == nil {
		t.Error("PAS + governor accepted")
	}
	if _, err := pasched.NewSystem(pasched.WithProfile(nil)); err == nil {
		t.Error("nil profile accepted")
	}
	if _, err := pasched.NewSystem(pasched.WithGovernor(nil)); err == nil {
		t.Error("nil governor accepted")
	}
	if _, err := pasched.NewSystem(pasched.WithQuantum(-1)); err == nil {
		t.Error("negative quantum accepted")
	}
}

func TestCreditSchedulerSystem(t *testing.T) {
	sys, err := pasched.NewSystem(
		pasched.WithCreditScheduler(),
		pasched.WithPerformanceGovernor(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if sys.PAS() != nil {
		t.Error("credit system has a PAS")
	}
	v, err := sys.AddVM("V50", 50)
	if err != nil {
		t.Fatal(err)
	}
	v.SetWorkload(pasched.CPUHog())
	if err := sys.Run(5 * pasched.Second); err != nil {
		t.Fatal(err)
	}
	if got := sys.GlobalLoad(); math.Abs(got-0.5) > 0.02 {
		t.Errorf("GlobalLoad = %v, want ~0.5", got)
	}
}

func TestSEDFSchedulerSystem(t *testing.T) {
	sys, err := pasched.NewSystem(
		pasched.WithSEDFScheduler(),
		pasched.WithOndemandGovernor(),
	)
	if err != nil {
		t.Fatal(err)
	}
	v, err := sys.AddVM("V20", 20)
	if err != nil {
		t.Fatal(err)
	}
	v.SetWorkload(pasched.CPUHog())
	if err := sys.Run(10 * pasched.Second); err != nil {
		t.Fatal(err)
	}
	// Variable credit: the single busy VM gets essentially the whole CPU.
	if got := sys.GlobalLoad(); got < 0.95 {
		t.Errorf("GlobalLoad = %v, want ~1 (extratime)", got)
	}
}

func TestEquationHelpers(t *testing.T) {
	c, err := pasched.CompensatedCredit(20, 0.5, 1)
	if err != nil || c != 40 {
		t.Errorf("CompensatedCredit = %v, %v", c, err)
	}
	if got := pasched.AbsoluteLoad(40, 0.5, 1); got != 20 {
		t.Errorf("AbsoluteLoad = %v", got)
	}
	if got := pasched.ComputeNewFreq(pasched.Optiplex755(), nil, 21); got != 1600 {
		t.Errorf("ComputeNewFreq = %v", got)
	}
}

func TestWorkloadHelpers(t *testing.T) {
	if _, err := pasched.NewPiApp(0); err == nil {
		t.Error("NewPiApp(0) accepted")
	}
	if got := pasched.PiWorkFor(1000, 50, 2); got != 1000 {
		t.Errorf("PiWorkFor = %v, want 1000", got)
	}
	rate := pasched.ExactRate(2667e6, 20, 0)
	if rate <= 0 {
		t.Errorf("ExactRate = %v", rate)
	}
	w, err := pasched.NewWebApp(pasched.WebAppConfig{
		Phases: []pasched.WebPhase{{Start: 0, End: pasched.Second, Rate: rate}},
	})
	if err != nil || w == nil {
		t.Fatalf("NewWebApp: %v", err)
	}
	if pasched.IdleWorkload().Pending() != 0 {
		t.Error("IdleWorkload has work")
	}
	if pasched.CPUHog().Pending() <= 0 {
		t.Error("CPUHog has no work")
	}
}

func TestExperimentRegistryViaFacade(t *testing.T) {
	ids := pasched.ExperimentIDs()
	if len(ids) == 0 {
		t.Fatal("no experiments registered")
	}
	title, err := pasched.ExperimentTitle(ids[0])
	if err != nil || title == "" {
		t.Errorf("ExperimentTitle = %q, %v", title, err)
	}
	if _, err := pasched.RunExperiment("nope"); err == nil {
		t.Error("RunExperiment(nope) succeeded")
	}
}

func TestTable1ProfilesFacade(t *testing.T) {
	if got := len(pasched.Table1Profiles()); got != 5 {
		t.Errorf("Table1Profiles returned %d, want 5", got)
	}
	if pasched.Elite8300().Max() != 3400 {
		t.Error("Elite8300 max frequency wrong")
	}
}
