package obs

import (
	"math"
	"strings"
	"testing"
)

// TestCounterOverflowWraps pins the documented wrap-on-overflow
// behavior: a counter at MaxUint64 rolls over to zero rather than
// saturating.
func TestCounterOverflowWraps(t *testing.T) {
	var c Counter
	c.Add(math.MaxUint64)
	if got := c.Value(); got != math.MaxUint64 {
		t.Fatalf("Value() = %d, want MaxUint64", got)
	}
	c.Inc()
	if got := c.Value(); got != 0 {
		t.Fatalf("after overflow Value() = %d, want 0 (wrap)", got)
	}
	c.Add(5)
	if got := c.Value(); got != 5 {
		t.Fatalf("after wrap Value() = %d, want 5", got)
	}
}

func TestNilInstrumentsAbsorbUpdates(t *testing.T) {
	var (
		c *Counter
		g *Gauge
		h *Histogram
		r *Registry
	)
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments should read as zero")
	}
	if r.Counter("x", "") != nil || r.Gauge("x", "") != nil || r.Histogram("x", "", []float64{1}) != nil {
		t.Fatal("nil registry should register nil instruments")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatalf("nil registry WritePrometheus: %v", err)
	}
}

// TestHistogramBucketBoundaries pins the Prometheus "le" semantics:
// a value equal to an upper bound lands in that bucket, the first
// value above every bound lands in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 5, 5.0000001, 100} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 1, 2} // per-bucket (non-cumulative) counts
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d count = %d, want %d", i, got, w)
		}
	}
	if got := h.Count(); got != 7 {
		t.Errorf("Count() = %d, want 7", got)
	}
	wantSum := 0.5 + 1 + 1.0000001 + 2 + 5 + 5.0000001 + 100
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-9 {
		t.Errorf("Sum() = %v, want %v", got, wantSum)
	}
}

func TestRegistryIdempotentAndKindChecked(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a_total", "help")
	c2 := r.Counter("a_total", "ignored")
	if c1 != c2 {
		t.Fatal("re-registering a counter should return the same instrument")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("kind mismatch should panic")
			}
		}()
		r.Gauge("a_total", "")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("invalid name should panic")
			}
		}()
		r.Counter("0bad", "")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("unsorted buckets should panic")
			}
		}()
		r.Histogram("h", "", []float64{2, 1})
	}()
}

// TestWritePrometheusGolden pins the exposition format byte for byte:
// HELP/TYPE lines, sorted metric order, cumulative le buckets, and
// shortest-round-trip float formatting.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "Last by name.").Add(7)
	r.Gauge("aa_gauge", "First by name.").Set(1.5)
	h := r.Histogram("mm_seconds", "A histogram.", []float64{0.5, 2})
	h.Observe(0.25)
	h.Observe(0.5)
	h.Observe(3)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aa_gauge First by name.
# TYPE aa_gauge gauge
aa_gauge 1.5
# HELP mm_seconds A histogram.
# TYPE mm_seconds histogram
mm_seconds_bucket{le="0.5"} 2
mm_seconds_bucket{le="2"} 2
mm_seconds_bucket{le="+Inf"} 3
mm_seconds_sum 3.75
mm_seconds_count 3
# HELP zz_total Last by name.
# TYPE zz_total counter
zz_total 7
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Add(3)
	r.Gauge("g", "").Set(2.5)
	r.Histogram("h", "", []float64{1}).Observe(4)

	s := r.Snapshot()
	if s.Counters["c_total"] != 3 || s.Gauges["g"] != 2.5 {
		t.Fatalf("snapshot scalars wrong: %+v", s)
	}
	hs := s.Histograms["h"]
	if hs.Count != 1 || hs.Sum != 4 {
		t.Fatalf("snapshot histogram wrong: %+v", hs)
	}
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"le": "+Inf"`) {
		t.Fatalf("+Inf bucket should serialize as a string:\n%s", b.String())
	}
}

// TestTraceWriterGolden pins the JSONL schema: one object per line,
// kind-dependent fields, query id omitted outside query events.
func TestTraceWriterGolden(t *testing.T) {
	var b strings.Builder
	tw := NewTraceWriter(&b)
	events := []Event{
		{Kind: EvQueryIssued, Time: 100, Query: 1, Peer: 42},
		{Kind: EvProbeRound, Time: 100, Query: 1, Peer: 42, Round: 1, Probes: 0},
		{Kind: EvProbe, Time: 100, Query: 1, Peer: 42, Target: 7, Outcome: OutcomeGood, Results: 2},
		{Kind: EvPong, Time: 100, Query: 1, Peer: 42, Target: 7, Entries: 5},
		{Kind: EvProbe, Time: 100.2, Query: 1, Peer: 42, Target: 9, Outcome: OutcomeDead},
		{Kind: EvQueryDone, Time: 100.4, Query: 1, Peer: 42, Outcome: OutcomeSatisfied, Probes: 2, Results: 2},
		{Kind: EvPeerBirth, Time: 101, Peer: 99},
		{Kind: EvPing, Time: 102, Peer: 99, Target: 42, Outcome: OutcomeGood},
	}
	for _, ev := range events {
		tw.Observe(ev)
	}
	if err := tw.Err(); err != nil {
		t.Fatal(err)
	}
	want := `{"ev":"query_issued","t":100.000,"query":1,"peer":42}
{"ev":"probe_round","t":100.000,"query":1,"peer":42,"round":1,"probes":0}
{"ev":"probe","t":100.000,"query":1,"peer":42,"target":7,"outcome":"good","results":2}
{"ev":"pong","t":100.000,"query":1,"peer":42,"target":7,"entries":5}
{"ev":"probe","t":100.200,"query":1,"peer":42,"target":9,"outcome":"dead","results":0}
{"ev":"query_done","t":100.400,"query":1,"peer":42,"outcome":"satisfied","probes":2,"results":2}
{"ev":"peer_birth","t":101.000,"peer":99}
{"ev":"ping","t":102.000,"peer":99,"target":42,"outcome":"good"}
`
	if got := b.String(); got != want {
		t.Fatalf("trace mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestTraceWriterMask(t *testing.T) {
	var b strings.Builder
	tw := NewTraceWriter(&b).Mask(QueryEventMask)
	tw.Observe(Event{Kind: EvPeerBirth, Time: 1, Peer: 1})
	tw.Observe(Event{Kind: EvPing, Time: 1, Peer: 1, Target: 2, Outcome: OutcomeGood})
	tw.Observe(Event{Kind: EvQueryIssued, Time: 1, Query: 1, Peer: 1})
	got := b.String()
	if strings.Contains(got, "peer_birth") || strings.Contains(got, `"ping"`) {
		t.Fatalf("masked kinds leaked:\n%s", got)
	}
	if !strings.Contains(got, "query_issued") {
		t.Fatalf("unmasked kind missing:\n%s", got)
	}
}
