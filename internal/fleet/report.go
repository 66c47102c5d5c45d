package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Interval is one reporting-barrier sample: what happened in the
// interval ending at TimeS.
type Interval struct {
	// TimeS is the end of the interval in simulated seconds.
	TimeS float64 `json:"time_s"`
	// Joules is the energy consumed by powered-on machines during the
	// interval.
	Joules float64 `json:"joules"`
	// AvgPowerW is Joules over the interval length.
	AvgPowerW float64 `json:"avg_power_w"`
	// ActiveMachines is the number of powered-on machines at the barrier
	// (before the barrier's power-offs).
	ActiveMachines int `json:"active_machines"`
	// LiveVMs is the number of VMs resident at the barrier.
	LiveVMs int `json:"live_vms"`
	// Arrivals, Departures, Rejected and Migrations count the interval's
	// lifecycle activity.
	Arrivals   int `json:"arrivals"`
	Departures int `json:"departures"`
	Rejected   int `json:"rejected"`
	Migrations int `json:"migrations"`
	// DemandedWork and AttainedWork are the interval's SLA numerator and
	// denominator in work units, summed over every VM present.
	DemandedWork float64 `json:"demanded_work"`
	AttainedWork float64 `json:"attained_work"`
	// SLA is AttainedWork/DemandedWork (1 when nothing was demanded).
	SLA float64 `json:"sla"`
	// Requests counts the requests served during the interval, and
	// ReqP50Ms/ReqP95Ms/ReqP99Ms are the interval's reply-latency
	// percentiles in milliseconds from the fleet-wide merged histogram.
	// All zero unless Config.Serving is enabled.
	Requests int64   `json:"requests,omitempty"`
	ReqP50Ms float64 `json:"req_p50_ms,omitempty"`
	ReqP95Ms float64 `json:"req_p95_ms,omitempty"`
	ReqP99Ms float64 `json:"req_p99_ms,omitempty"`
}

// VMOutcome is one VM's final SLA record.
type VMOutcome struct {
	Name    string  `json:"name"`
	Class   string  `json:"class"`
	Machine int     `json:"machine"` // final hosting machine
	ArriveS float64 `json:"arrive_s"`
	DepartS float64 `json:"depart_s"` // departure, or the horizon for still-live VMs
	// Departed is false for VMs still resident at the horizon.
	Departed     bool    `json:"departed"`
	DemandedWork float64 `json:"demanded_work"`
	AttainedWork float64 `json:"attained_work"`
	SLA          float64 `json:"sla"`
	// ReqOffered/ReqCompleted count the VM's serving requests, and
	// ReqMeanMs/ReqMaxMs summarize its reply latencies in milliseconds
	// (exact, not histogram-quantized). All zero unless Config.Serving
	// is enabled.
	ReqOffered   int64   `json:"req_offered,omitempty"`
	ReqCompleted int64   `json:"req_completed,omitempty"`
	ReqMeanMs    float64 `json:"req_mean_ms,omitempty"`
	ReqMaxMs     float64 `json:"req_max_ms,omitempty"`
	// Throttle-attribution ledger (zero unless Config.Obs is enabled):
	// every microsecond of the VM's host residency in exactly one
	// bucket, so the six buckets sum to LifetimeUs — enforced at every
	// VM finalization. Exact integers, identical for every shard and
	// worker count.
	LifetimeUs    int64 `json:"lifetime_us,omitempty"`
	RunUs         int64 `json:"run_us,omitempty"`
	DownclockedUs int64 `json:"downclocked_us,omitempty"`
	CappedUs      int64 `json:"capped_us,omitempty"`
	ContendedUs   int64 `json:"contended_us,omitempty"`
	MigratingUs   int64 `json:"migrating_us,omitempty"`
	IdleUs        int64 `json:"idle_us,omitempty"`
}

// Summary is the cluster-level outcome of one fleet run.
type Summary struct {
	Policy    string  `json:"policy"`
	Scheduler string  `json:"scheduler"` // "pas" or "fix-credit"
	Machines  int     `json:"machines"`
	HorizonS  float64 `json:"horizon_s"`

	Arrived  int `json:"arrived"`
	Departed int `json:"departed"`
	Rejected int `json:"rejected"`
	Migrated int `json:"migrated"`

	EverPoweredOn      int     `json:"ever_powered_on"`
	PowerOns           int     `json:"power_ons"`
	PowerOffs          int     `json:"power_offs"`
	PeakActiveMachines int     `json:"peak_active_machines"`
	MeanActiveMachines float64 `json:"mean_active_machines"`

	TotalJoules float64 `json:"total_joules"`
	MeanPowerW  float64 `json:"mean_power_w"`

	OverallSLA float64 `json:"overall_sla"`
	MeanVMSLA  float64 `json:"mean_vm_sla"`
	MinVMSLA   float64 `json:"min_vm_sla"`
	VMsBelow95 int     `json:"vms_below_95pct"`

	// Serving totals (zero unless Config.Serving is enabled): every
	// offered request either completed, was abandoned (still unserved
	// when its VM departed), or was still queued or in service at the
	// horizon — RequestsOffered == RequestsCompleted +
	// RequestsAbandoned + RequestsInFlight. RequestsRetried is always
	// zero (the serving model has no retries); it stays in the schema
	// until bench/workload.go's conservation check stops reading it.
	RequestsOffered   int64 `json:"requests_offered,omitempty"`
	RequestsCompleted int64 `json:"requests_completed,omitempty"`
	RequestsAbandoned int64 `json:"requests_abandoned,omitempty"`
	RequestsRetried   int64 `json:"requests_retried,omitempty"`
	RequestsInFlight  int64 `json:"requests_in_flight,omitempty"`
	// Fleet-wide reply-latency summary in milliseconds: histogram
	// percentiles (relative quantization error <= 1/32 above 64 us) and
	// the exact mean and maximum.
	ReqP50Ms  float64 `json:"req_p50_ms,omitempty"`
	ReqP95Ms  float64 `json:"req_p95_ms,omitempty"`
	ReqP99Ms  float64 `json:"req_p99_ms,omitempty"`
	ReqMeanMs float64 `json:"req_mean_ms,omitempty"`
	ReqMaxMs  float64 `json:"req_max_ms,omitempty"`
	// ClassLatency breaks the latency summary down per VM class, sorted
	// by class name; classes that served nothing are omitted.
	ClassLatency []ClassLatency `json:"class_latency,omitempty"`

	// Flight-recorder totals (zero unless Config.Obs is enabled):
	// ObsEvents counts the drained events, and the Ledger* fields sum
	// the per-VM throttle-attribution buckets across every outcome —
	// the six buckets sum to LedgerSpanUs, enforced at finalize.
	ObsEvents           int64 `json:"obs_events,omitempty"`
	LedgerSpanUs        int64 `json:"ledger_span_us,omitempty"`
	LedgerRunUs         int64 `json:"ledger_run_us,omitempty"`
	LedgerDownclockedUs int64 `json:"ledger_downclocked_us,omitempty"`
	LedgerCappedUs      int64 `json:"ledger_capped_us,omitempty"`
	LedgerContendedUs   int64 `json:"ledger_contended_us,omitempty"`
	LedgerMigratingUs   int64 `json:"ledger_migrating_us,omitempty"`
	LedgerIdleUs        int64 `json:"ledger_idle_us,omitempty"`

	// Autoscaler decision totals (zero unless Config.Autoscale is
	// enabled): applied cap resizes, replica scale-outs and scale-ins,
	// and decisions dropped at application time (no headroom to grant,
	// placement rejection, or a stale target). ScaleOuts minus ScaleIns
	// is the number of replicas live at the horizon, enforced at
	// finalize.
	AutoscaleResizes   int64 `json:"autoscale_resizes,omitempty"`
	AutoscaleScaleOuts int64 `json:"autoscale_scale_outs,omitempty"`
	AutoscaleScaleIns  int64 `json:"autoscale_scale_ins,omitempty"`
	AutoscaleRejected  int64 `json:"autoscale_rejected,omitempty"`

	// BatchedQuanta and SteppedQuanta aggregate the engines'
	// introspection across machines: how much of the run the
	// event-horizon fast path covered.
	BatchedQuanta int64 `json:"batched_quanta"`
	SteppedQuanta int64 `json:"stepped_quanta"`
}

// ClassLatency is one VM class's reply-latency summary (milliseconds),
// from the exact per-class histogram reduction.
type ClassLatency struct {
	Class    string  `json:"class"`
	Requests int64   `json:"requests"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
	MeanMs   float64 `json:"mean_ms"`
	MaxMs    float64 `json:"max_ms"`
}

// Report is the full outcome: the summary, the per-interval curves and
// the per-VM SLA records.
type Report struct {
	Summary   Summary     `json:"summary"`
	Intervals []Interval  `json:"intervals"`
	PerVM     []VMOutcome `json:"per_vm"`
}

// WriteCSV writes the interval curves as CSV with a shared time column:
// the buffered intervals replayed through a CSVSink, so the file is the
// one a streaming run writes.
func (r *Report) WriteCSV(w io.Writer) error {
	sink := NewCSVSink(w)
	for i := range r.Intervals {
		if err := sink.Interval(&r.Intervals[i]); err != nil {
			return err
		}
	}
	return sink.Finish(&r.Summary)
}

// WriteJSON writes the whole report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("fleet: write report: %w", err)
	}
	return nil
}

// Sink receives a fleet run's results incrementally, in deterministic
// order: every per-VM outcome of an interval, then the interval sample
// (Outcome calls never interleave out of chronological order), and
// Finish exactly once with the summary after the last interval. Sinks
// let a run's memory stay O(machines + live VMs) instead of O(history):
// the in-memory Report is itself a Sink, and Config.DiscardReport drops
// it entirely for million-machine runs. Sink methods are called from the
// coordinator only — implementations need no locking.
//
// Ownership: the pointed-to records belong to the fleet and are reused
// after the call returns — outcome slots recycle through a pool, the
// interval accumulator is reset in place. Arguments are therefore only
// valid for the duration of the call; a sink that retains anything must
// copy it, as the buffering Report does.
type Sink interface {
	Interval(iv *Interval) error
	Outcome(o *VMOutcome) error
	Finish(s *Summary) error
}

// Interval implements Sink by buffering a copy of the sample (the
// argument is fleet-owned; see the Sink ownership contract).
func (r *Report) Interval(iv *Interval) error {
	r.Intervals = append(r.Intervals, *iv)
	return nil
}

// Outcome implements Sink by buffering a copy of the record.
func (r *Report) Outcome(o *VMOutcome) error {
	r.PerVM = append(r.PerVM, *o)
	return nil
}

// Finish implements Sink by storing the summary.
func (r *Report) Finish(s *Summary) error {
	r.Summary = *s
	return nil
}

// csvHeader names the interval CSV columns, in CSVSink's cell order.
const csvHeader = "time_s,joules,avg_power_w,active_machines,live_vms,sla,migrations,rejected,requests,req_p50_ms,req_p95_ms,req_p99_ms\n"

// CSVSink streams the interval curves as CSV rows, one per reporting
// barrier: the interval CSV's only encoder (Report.WriteCSV replays the
// buffered intervals through it). It ignores per-VM outcomes. Finish
// flushes; the caller owns closing the underlying writer.
type CSVSink struct {
	w      *bufio.Writer
	row    []byte
	header bool
}

// NewCSVSink returns a streaming CSV sink writing to w.
func NewCSVSink(w io.Writer) *CSVSink {
	return &CSVSink{w: bufio.NewWriter(w)}
}

func (s *CSVSink) writeHeader() error {
	if s.header {
		return nil
	}
	s.header = true
	_, err := s.w.WriteString(csvHeader)
	return err
}

// Interval implements Sink.
func (s *CSVSink) Interval(iv *Interval) error {
	if err := s.writeHeader(); err != nil {
		return err
	}
	// Cells are %g at full precision, counts passing through float64
	// conversion.
	row := s.row[:0]
	for i, v := range [...]float64{
		iv.TimeS, iv.Joules, iv.AvgPowerW,
		float64(iv.ActiveMachines), float64(iv.LiveVMs),
		iv.SLA, float64(iv.Migrations), float64(iv.Rejected),
		float64(iv.Requests), iv.ReqP50Ms, iv.ReqP95Ms, iv.ReqP99Ms,
	} {
		if i > 0 {
			row = append(row, ',')
		}
		row = strconv.AppendFloat(row, v, 'g', -1, 64)
	}
	row = append(row, '\n')
	s.row = row[:0]
	_, err := s.w.Write(row)
	return err
}

// Outcome implements Sink.
func (s *CSVSink) Outcome(*VMOutcome) error { return nil }

// Finish implements Sink: it writes the header even for a run with no
// intervals and flushes.
func (s *CSVSink) Finish(*Summary) error {
	if err := s.writeHeader(); err != nil {
		return err
	}
	return s.w.Flush()
}

// JSONLSink streams the run as JSON Lines: one object per record, each
// wrapping an interval sample, a per-VM outcome, or the final summary
// in its named field. Unlike CSVSink it carries the complete report —
// a jq one-liner reassembles Report.WriteJSON's content from it.
type JSONLSink struct {
	w   *bufio.Writer
	enc *json.Encoder
}

// NewJSONLSink returns a streaming JSON Lines sink writing to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriter(w)
	return &JSONLSink{w: bw, enc: json.NewEncoder(bw)}
}

// JSONLRecord is one JSONLSink line; exactly one field is set.
type JSONLRecord struct {
	Interval *Interval  `json:"interval,omitempty"`
	VM       *VMOutcome `json:"vm,omitempty"`
	Summary  *Summary   `json:"summary,omitempty"`
}

// Interval implements Sink. The argument is copied into a sink-owned
// record before encoding (the fleet reuses it after the call).
func (s *JSONLSink) Interval(iv *Interval) error {
	rec := *iv
	return s.enc.Encode(JSONLRecord{Interval: &rec})
}

// Outcome implements Sink.
func (s *JSONLSink) Outcome(o *VMOutcome) error {
	rec := *o
	return s.enc.Encode(JSONLRecord{VM: &rec})
}

// Finish implements Sink.
func (s *JSONLSink) Finish(sum *Summary) error {
	rec := *sum
	if err := s.enc.Encode(JSONLRecord{Summary: &rec}); err != nil {
		return err
	}
	return s.w.Flush()
}
