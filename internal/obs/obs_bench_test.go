package obs

import (
	"fmt"
	"io"
	"testing"

	"pasched/internal/sim"
)

// benchMachines is the fleet-serve recorder shape: 40 machine lanes on
// one shard, plus the coordinator lane.
const benchMachines = 40

// discardSink drops every window.
type discardSink struct{}

func (discardSink) Events([]Event) error  { return nil }
func (discardSink) Finish(sim.Time) error { return nil }

// benchVMs are the stable VM names the synthetic windows use, three per
// machine.
var benchVMs = func() [][3]string {
	v := make([][3]string, benchMachines)
	for m := range v {
		for i := range v[m] {
			v[m][i] = fmt.Sprintf("vm%03d", m*3+i)
		}
	}
	return v
}()

// emitWindow emits one second-long reporting interval starting at base:
// 500 events per machine lane — state changes, P-states, refills,
// patterns and exhaustions on a 1 ms quantum grid, so stamps collide
// across lanes — and the coordinator's placement and barrier events.
// About 20k events in all.
func emitWindow(machines []*MachineObs, co *MachineObs, base sim.Time) {
	for m, mo := range machines {
		vms := &benchVMs[m]
		at := base
		for i := 0; i < 100; i++ {
			at += sim.Time(1+(i+m)%19) * 500
			vm := vms[i%3]
			mo.Emit(at, KindVMState, vm, int64(StateRun+State(i%4)), 0)
			mo.Emit(at, KindVMState, vms[(i+1)%3], int64(StateContended), 0)
			switch i % 4 {
			case 0:
				mo.Emit(at, KindPState, "", int64(1600+100*(i%8)), 0)
			case 1:
				mo.Emit(at, KindRefill, "", 0, 0)
			case 2:
				mo.Emit(at, KindExhausted, vm, 0, 0)
			default:
				mo.Emit(at, KindRecompensate, "", 2133, 3)
			}
			mo.Emit(at, KindPattern, "", 12, 3)
			mo.Emit(at, KindQueueDepth, vm, int64(i%7), int64(i))
		}
	}
	end := base + sim.Second
	for i := 0; i < 150; i++ {
		co.Emit(base+sim.Time(i)*5000, KindPlace, benchVMs[i%benchMachines][0], int64(i%benchMachines), 0)
	}
	co.Emit(end, KindLatency, "", 1500, 9000)
	co.Emit(end, KindBarrier, "", 120, 0)
}

func newBenchRecorder(sink EventSink) (*Recorder, []*MachineObs, *MachineObs) {
	r := NewRecorder(1, sink, false)
	machines := make([]*MachineObs, benchMachines)
	for i := range machines {
		machines[i] = NewMachineObs(r.Ring(0), int32(i))
	}
	return r, machines, NewMachineObs(r.CoordinatorRing(), LaneCoordinator)
}

// BenchmarkRecorderDrain measures one reporting interval of the recorder
// with a sink that drops the window: emitting ~20k events on 41 lanes
// and merging them into the window.
func BenchmarkRecorderDrain(b *testing.B) {
	r, machines, co := newBenchRecorder(discardSink{})
	emitWindow(machines, co, 0) // warm the lane runs and the window
	if err := r.Drain(); err != nil {
		b.Fatal(err)
	}
	perWindow := r.Total()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emitWindow(machines, co, sim.Time(i+1)*sim.Second)
		if err := r.Drain(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if r.Fallbacks() != 0 {
		b.Fatalf("%d windows fell back to sorting", r.Fallbacks())
	}
	b.ReportMetric(float64(perWindow), "events/op")
}

// byteCounter counts what is written to it.
type byteCounter int64

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}

// BenchmarkPerfettoEvents measures encoding one merged ~20k-event window
// to trace-event JSON, every track already seen; bytes are the encoded
// window's.
func BenchmarkPerfettoEvents(b *testing.B) {
	keep := &collectSink{}
	r, machines, co := newBenchRecorder(keep)
	emitWindow(machines, co, 0)
	if err := r.Drain(); err != nil {
		b.Fatal(err)
	}
	window := keep.windows[0]
	var n byteCounter
	pw := NewPerfettoWriter(&n)
	var sizes [2]byteCounter
	for i := range sizes { // the first window also creates every track
		if err := pw.Events(window); err != nil {
			b.Fatal(err)
		}
		pw.flush()
		sizes[i] = n
	}
	b.SetBytes(int64(sizes[1] - sizes[0]))
	pw = NewPerfettoWriter(io.Discard)
	if err := pw.Events(window); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pw.Events(window); err != nil {
			b.Fatal(err)
		}
	}
}
