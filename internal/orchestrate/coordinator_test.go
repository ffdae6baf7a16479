package orchestrate

// Fault-injection tests for the coordinator: crashed workers, wedged
// workers, corrupt frames, stale results. The misbehaving side is a
// hand-driven protocol client over a memnet stream, so each failure
// mode is injected exactly where it would occur on a real wire.

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/node/memnet"
)

// harness is a coordinator listening on an in-memory stream network.
type harness struct {
	t     *testing.T
	coord *Coordinator
	net   *memnet.Network
	lis   *memnet.StreamListener
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	h := &harness{t: t, coord: New(cfg), net: memnet.New(1)}
	h.lis = h.net.ListenStream()
	go h.coord.Serve(h.lis)
	t.Cleanup(func() {
		h.coord.Close()
		h.lis.Close()
	})
	return h
}

// dial opens a raw protocol connection to the coordinator.
func (h *harness) dial() net.Conn {
	h.t.Helper()
	conn, err := h.net.DialStream(h.lis.AddrPort())
	if err != nil {
		h.t.Fatal(err)
	}
	return conn
}

// startWorker runs a real worker until the harness tears down.
func (h *harness) startWorker(name string) context.CancelFunc {
	h.t.Helper()
	conn := h.dial()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunWorker(ctx, conn, name)
	}()
	h.t.Cleanup(func() {
		cancel()
		<-done
	})
	return cancel
}

// tinyPoints builds n distinct minimal-cost GUESS points.
func tinyPoints(n int) []experiments.Point {
	pts := make([]experiments.Point, n)
	for i := range pts {
		p := core.DefaultParams()
		p.NetworkSize = 30
		p.CacheSize = 5 + i
		p.WarmupTime = 5
		p.MeasureTime = 20
		p.Seed = 7
		pts[i] = experiments.Point{Family: experiments.FamilyGUESS, Core: &p}
	}
	return pts
}

// localResults computes the reference results in-process.
func localResults(t *testing.T, pts []experiments.Point) []experiments.PointResult {
	t.Helper()
	out := make([]experiments.PointResult, len(pts))
	for i, pt := range pts {
		pr, err := experiments.RunPoint(context.Background(), pt, experiments.Observation{})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = pr
	}
	return out
}

func sameResults(t *testing.T, got, want []experiments.PointResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range got {
		a, _ := json.Marshal(got[i])
		b, _ := json.Marshal(want[i])
		if string(a) != string(b) {
			t.Fatalf("result %d differs from local run:\n%s\n%s", i, a, b)
		}
	}
}

// TestSweepRunsOnWorkers is the basic path: a deduplicated batch
// executes across two workers and assembles in input order.
func TestSweepRunsOnWorkers(t *testing.T) {
	h := newHarness(t, Config{})
	h.startWorker("w0")
	h.startWorker("w1")

	pts := tinyPoints(5)
	pts = append(pts, pts[2]) // duplicate point: one unit, two slots
	got, err := h.coord.RunPoints(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, got, localResults(t, pts))

	s := h.coord.Stats()
	if s.UnitsTotal != 5 || s.Executed != 5 || s.Deduped != 1 || s.Duplicates != 0 {
		t.Fatalf("stats = %+v, want 5 units, 5 executed, 1 deduped", s)
	}
}

// TestWorkerCrashReassigned kills a worker that has a unit in flight;
// the unit must be reassigned and computed exactly once elsewhere.
func TestWorkerCrashReassigned(t *testing.T) {
	h := newHarness(t, Config{})

	// A hand-driven worker that takes one unit and drops dead.
	crash := h.dial()
	if err := sendMsg(crash, message{Type: msgHello, Worker: "crashy"}); err != nil {
		t.Fatal(err)
	}

	pts := tinyPoints(3)
	type outcome struct {
		res []experiments.PointResult
		err error
	}
	doneCh := make(chan outcome, 1)
	go func() {
		res, err := h.coord.RunPoints(context.Background(), pts)
		doneCh <- outcome{res, err}
	}()

	// Receive a unit, then crash without answering.
	if _, err := recvMsg(crash); err != nil {
		t.Fatal(err)
	}
	crash.Close()

	// A healthy worker arrives and finishes everything, including the
	// abandoned unit.
	h.startWorker("healthy")
	out := <-doneCh
	if out.err != nil {
		t.Fatal(out.err)
	}
	sameResults(t, out.res, localResults(t, pts))

	s := h.coord.Stats()
	if s.Reassigned != 1 {
		t.Fatalf("Reassigned = %d, want 1", s.Reassigned)
	}
	if s.Executed != 3 || s.Duplicates != 0 {
		t.Fatalf("stats = %+v: the crashed unit must be computed exactly once", s)
	}
}

// TestWedgedWorkerTimesOut covers the wedge (not crash) case: a worker
// that accepts a unit and never answers is cut off by the unit timeout
// and its unit reassigned.
func TestWedgedWorkerTimesOut(t *testing.T) {
	h := newHarness(t, Config{UnitTimeout: 100 * time.Millisecond})

	wedged := h.dial()
	if err := sendMsg(wedged, message{Type: msgHello, Worker: "wedged"}); err != nil {
		t.Fatal(err)
	}

	pts := tinyPoints(1)
	type outcome struct {
		res []experiments.PointResult
		err error
	}
	doneCh := make(chan outcome, 1)
	go func() {
		res, err := h.coord.RunPoints(context.Background(), pts)
		doneCh <- outcome{res, err}
	}()

	// Take the unit and sit on it forever.
	if _, err := recvMsg(wedged); err != nil {
		t.Fatal(err)
	}

	h.startWorker("healthy")
	out := <-doneCh
	if out.err != nil {
		t.Fatal(out.err)
	}
	sameResults(t, out.res, localResults(t, pts))
	if s := h.coord.Stats(); s.Reassigned != 1 {
		t.Fatalf("Reassigned = %d, want 1", s.Reassigned)
	}
}

// TestRetriesExhaustedFailsRun checks the retry budget is a hard
// bound: a unit that keeps killing its workers fails the run rather
// than looping forever.
func TestRetriesExhaustedFailsRun(t *testing.T) {
	h := newHarness(t, Config{MaxRetries: 1})

	pts := tinyPoints(1)
	type outcome struct {
		res []experiments.PointResult
		err error
	}
	doneCh := make(chan outcome, 1)
	go func() {
		res, err := h.coord.RunPoints(context.Background(), pts)
		doneCh <- outcome{res, err}
	}()

	// Initial attempt + one retry, both crashing.
	for i := 0; i < 2; i++ {
		conn := h.dial()
		if err := sendMsg(conn, message{Type: msgHello, Worker: "crashy"}); err != nil {
			t.Fatal(err)
		}
		if _, err := recvMsg(conn); err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}

	out := <-doneCh
	if out.err == nil {
		t.Fatal("run succeeded with every worker crashing")
	}
	if !strings.Contains(out.err.Error(), "failed after 2 attempts") {
		t.Fatalf("err = %v, want retry exhaustion", out.err)
	}
	if out.res != nil {
		t.Fatal("failed run returned partial results")
	}
}

// TestCorruptResultFrameRejected checks a result frame that fails its
// checksum (and one that truncates) never reaches the results: the
// connection drops and the unit is recomputed by a healthy worker.
func TestCorruptResultFrameRejected(t *testing.T) {
	corruptions := map[string]func(frame []byte) []byte{
		"checksum mismatch": func(f []byte) []byte {
			f[len(f)-1] ^= 0x01
			return f
		},
		"truncated frame": func(f []byte) []byte {
			return f[:len(f)-3]
		},
	}
	//lint:maporder-ok independent subtests; execution order is irrelevant
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			h := newHarness(t, Config{})

			evil := h.dial()
			if err := sendMsg(evil, message{Type: msgHello, Worker: "evil"}); err != nil {
				t.Fatal(err)
			}

			pts := tinyPoints(1)
			type outcome struct {
				res []experiments.PointResult
				err error
			}
			doneCh := make(chan outcome, 1)
			go func() {
				res, err := h.coord.RunPoints(context.Background(), pts)
				doneCh <- outcome{res, err}
			}()

			m, err := recvMsg(evil)
			if err != nil {
				t.Fatal(err)
			}
			// Build a valid-looking result with poisoned payload bytes.
			bogus := experiments.PointResult{Family: experiments.FamilyGUESS, Core: &core.Results{Queries: 999999}}
			payload, err := json.Marshal(message{Type: msgResult, Result: &unitResult{ID: m.Unit.ID, Key: m.Unit.Key, Result: bogus}})
			if err != nil {
				t.Fatal(err)
			}
			var frame []byte
			frame = binary.BigEndian.AppendUint32(frame, uint32(len(payload)))
			frame = binary.BigEndian.AppendUint32(frame, 0xdeadbeef) // wrong CRC
			frame = append(frame, payload...)
			frame = corrupt(frame)
			if _, err := evil.Write(frame); err != nil {
				t.Fatal(err)
			}
			evil.Close()

			h.startWorker("healthy")
			out := <-doneCh
			if out.err != nil {
				t.Fatal(out.err)
			}
			sameResults(t, out.res, localResults(t, pts))
			if out.res[0].Core.Queries == 999999 {
				t.Fatal("poisoned result reached the run")
			}
		})
	}
}

// TestStaleResultRejected checks a result whose unit ID does not match
// the in-flight unit is discarded and the unit recomputed.
func TestStaleResultRejected(t *testing.T) {
	h := newHarness(t, Config{})

	evil := h.dial()
	if err := sendMsg(evil, message{Type: msgHello, Worker: "evil"}); err != nil {
		t.Fatal(err)
	}

	pts := tinyPoints(2)
	type outcome struct {
		res []experiments.PointResult
		err error
	}
	doneCh := make(chan outcome, 1)
	go func() {
		res, err := h.coord.RunPoints(context.Background(), pts)
		doneCh <- outcome{res, err}
	}()

	m, err := recvMsg(evil)
	if err != nil {
		t.Fatal(err)
	}
	// Answer with a result for a different unit than was dispatched.
	wrong := experiments.PointResult{Family: experiments.FamilyGUESS, Core: &core.Results{Queries: 1}}
	if err := sendMsg(evil, message{Type: msgResult, Result: &unitResult{ID: m.Unit.ID + 1, Key: m.Unit.Key, Result: wrong}}); err != nil {
		t.Fatal(err)
	}

	h.startWorker("healthy")
	out := <-doneCh
	if out.err != nil {
		t.Fatal(out.err)
	}
	sameResults(t, out.res, localResults(t, pts))
	if s := h.coord.Stats(); s.Reassigned != 1 {
		t.Fatalf("Reassigned = %d, want 1", s.Reassigned)
	}
}

// TestWorkerErrorMessageRequeues checks a clean worker-side failure
// (msgError) requeues the unit without dropping the connection.
func TestWorkerErrorMessageRequeues(t *testing.T) {
	h := newHarness(t, Config{MaxRetries: -1})

	pts := tinyPoints(1)
	type outcome struct {
		res []experiments.PointResult
		err error
	}
	doneCh := make(chan outcome, 1)
	go func() {
		res, err := h.coord.RunPoints(context.Background(), pts)
		doneCh <- outcome{res, err}
	}()

	conn := h.dial()
	if err := sendMsg(conn, message{Type: msgHello, Worker: "honest"}); err != nil {
		t.Fatal(err)
	}
	m, err := recvMsg(conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := sendMsg(conn, message{Type: msgError, UnitID: m.Unit.ID, Error: "transient failure"}); err != nil {
		t.Fatal(err)
	}

	out := <-doneCh
	if out.err == nil || !strings.Contains(out.err.Error(), "transient failure") {
		t.Fatalf("err = %v, want the worker's reported failure (retries disabled)", out.err)
	}
}

// TestCacheSkipsRecomputation checks the shared cache short-circuits
// both duplicate units within a run and whole repeat runs.
func TestCacheSkipsRecomputation(t *testing.T) {
	cache := NewMemoryCache()
	h := newHarness(t, Config{Cache: cache})
	h.startWorker("w0")

	pts := tinyPoints(3)
	first, err := h.coord.RunPoints(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if s := h.coord.Stats(); s.Executed != 3 || s.CacheHits != 0 {
		t.Fatalf("first run stats = %+v", s)
	}

	second, err := h.coord.RunPoints(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	s := h.coord.Stats()
	if s.Executed != 3 {
		t.Fatalf("repeat run recomputed: Executed = %d, want 3", s.Executed)
	}
	if s.CacheHits != 3 {
		t.Fatalf("CacheHits = %d, want 3", s.CacheHits)
	}
	sameResults(t, second, first)
}

// TestCoordinatorDispatchesCostliestFirst drives one hand-written
// worker, so every unit of a batch passes through it in dispatch
// order: costliest first by experiments.DispatchOrder, ties in input
// order. The results still assemble in input order, equal to a serial
// run's byte for byte, and so do a LocalPool's.
func TestCoordinatorDispatchesCostliestFirst(t *testing.T) {
	h := newHarness(t, Config{})
	w := h.dial()
	if err := sendMsg(w, message{Type: msgHello, Worker: "recorder"}); err != nil {
		t.Fatal(err)
	}
	pts := tinyPoints(4)
	for i, c := range []int{5, 9, 7, 9} {
		pts[i].Core.CacheSize = c
	}
	pts[3].Core.Seed++ // equal cost to point 1, but a unit of its own
	type outcome struct {
		res []experiments.PointResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := h.coord.RunPoints(context.Background(), pts)
		done <- outcome{res, err}
	}()
	var got []string
	for range pts {
		m, err := recvMsg(w)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m.Unit.Key)
		if err := sendMsg(w, executeUnit(context.Background(), m.Unit)); err != nil {
			t.Fatal(err)
		}
	}
	for k, i := range []int{1, 3, 2, 0} {
		if got[k] != pts[i].Key() {
			t.Fatalf("unit %d dispatched is %s, want point %d's %s", k, got[k], i, pts[i].Key())
		}
	}
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	sameResults(t, out.res, localResults(t, pts))

	pool, err := NewLocalPool(2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	spec := experiments.Spec{Family: experiments.FamilyGUESS}
	for _, pt := range pts {
		spec.Core = append(spec.Core, *pt.Core)
	}
	serial, err := experiments.RunSpec(experiments.Options{Parallelism: 1}, spec)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := experiments.RunSpec(experiments.Options{Executor: pool}, spec)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, pooled, serial)
}

// TestDiskCacheAcrossCoordinators checks a disk cache carries results
// to a brand-new coordinator, as across process restarts.
func TestDiskCacheAcrossCoordinators(t *testing.T) {
	dir := t.TempDir()
	cache1, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	h1 := newHarness(t, Config{Cache: cache1})
	h1.startWorker("w0")
	pts := tinyPoints(2)
	first, err := h1.coord.RunPoints(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}

	cache2, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	// No workers at all: every unit must come from disk.
	h2 := newHarness(t, Config{Cache: cache2})
	second, err := h2.coord.RunPoints(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, second, first)
	if s := h2.coord.Stats(); s.Executed != 0 || s.CacheHits != 2 {
		t.Fatalf("stats = %+v, want pure cache run", s)
	}
}

// TestRunPointsContextCancel checks cancellation fails the run
// promptly even with no workers connected.
func TestRunPointsContextCancel(t *testing.T) {
	h := newHarness(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	_, err := h.coord.RunPoints(ctx, tinyPoints(1))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestClosedCoordinatorRejectsRuns checks Close is terminal.
func TestClosedCoordinatorRejectsRuns(t *testing.T) {
	h := newHarness(t, Config{})
	h.coord.Close()
	if _, err := h.coord.RunPoints(context.Background(), tinyPoints(1)); err == nil {
		t.Fatal("RunPoints succeeded on a closed coordinator")
	}
}
