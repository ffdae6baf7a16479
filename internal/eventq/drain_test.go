package eventq

import (
	"context"
	"reflect"
	"testing"
)

// handled is one event as a Drain script sees it: its time, and 0 for
// an arrival or the push number of a queued event.
type handled struct {
	time float64
	id   int
}

// TestArrivalMergeOrder: Drain must hand out arrivals and queued events
// in the order of one queue into which every arrival was pushed before
// the first pop.
func TestArrivalMergeOrder(t *testing.T) {
	arrivals := []float64{1, 2, 2, 3, 5, 5, 9, 12, 12}
	// pushes[k] are the events pushed while the k-th event is handled,
	// as a gossip round or a DHT hop would push its successor.
	pushes := map[int][]float64{
		0:  {2},      // due with two arrivals still to come: they go first
		1:  {3, 2.5}, // out of order, and one due with an arrival
		3:  {5, 5, 4},
		6:  {5}, // due with arrivals already handed out
		9:  {5}, // after the arrivals at 5
		12: {9}, // due with the arrival at 9
		// the queue drains before the arrivals at 12
	}
	// script returns a step that records each event and makes the
	// pushes due with it.
	script := func(q *Queue[int], out *[]handled) func(float64, int) bool {
		id := 0
		return func(time float64, v int) bool {
			for _, at := range pushes[len(*out)] {
				id++
				q.Push(at, id)
			}
			*out = append(*out, handled{time, v})
			return true
		}
	}

	var ref Queue[int]
	for _, at := range arrivals {
		ref.Push(at, 0)
	}
	var want []handled
	step := script(&ref, &want)
	for {
		time, v, ok := ref.Pop()
		if !ok {
			break
		}
		step(time, v)
	}

	var q Queue[int]
	var got []handled
	if q.Drain(context.Background(), arrivals, 0, script(&q, &got)) {
		t.Fatal("Drain reported a cancellation")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged order differs from the pre-pushed queue's:\n got %v\nwant %v", got, want)
	}
	pushed := 0
	for _, p := range pushes {
		pushed += len(p)
	}
	if len(got) != len(arrivals)+pushed || q.Len() != 0 {
		t.Fatalf("Drain handed out %d events and left %d, want %d and 0", len(got), q.Len(), len(arrivals)+pushed)
	}
}

// TestDrainStopsOnStep: a step that returns false ends Drain at once,
// leaving the later events queued and the later arrivals unhanded.
func TestDrainStopsOnStep(t *testing.T) {
	var q Queue[int]
	for i := 1; i <= 5; i++ {
		q.Push(float64(i), i)
	}
	var got []handled
	cancelled := q.Drain(context.Background(), []float64{2.5, 6}, 0, func(time float64, v int) bool {
		got = append(got, handled{time, v})
		return time < 2.5
	})
	want := []handled{{1, 1}, {2, 2}, {2.5, 0}}
	if cancelled || !reflect.DeepEqual(got, want) || q.Len() != 3 {
		t.Fatalf("Drain = %v, handed out %v and left %d; want false, %v and 3", cancelled, got, q.Len(), want)
	}
}

// TestDrainCancellation: ctx is checked before the first event and then
// once every cancelCheckInterval events, arrivals counted; a nil ctx
// never cancels.
func TestDrainCancellation(t *testing.T) {
	fill := func() *Queue[int] {
		var q Queue[int]
		for i := range 1000 {
			q.Push(float64(i), i+1)
		}
		return &q
	}
	arrivals := []float64{0.5, 10.5, 100.5}

	done, cancel := context.WithCancel(context.Background())
	cancel()
	q := fill()
	if !q.Drain(done, arrivals, 0, func(float64, int) bool {
		t.Fatal("step called under a cancelled ctx")
		return true
	}) || q.Len() != 1000 {
		t.Fatalf("pre-cancelled Drain left %d events queued, want 1000", q.Len())
	}

	const cancelAt = 100 // the 0-based event whose step cancels
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	q = fill()
	n := 0
	if !q.Drain(ctx, arrivals, 0, func(float64, int) bool {
		if n == cancelAt {
			cancel()
		}
		n++
		return true
	}) {
		t.Fatal("Drain did not report the cancellation")
	}
	if want := (cancelAt/cancelCheckInterval + 1) * cancelCheckInterval; n != want {
		t.Fatalf("cancelled in event %d, Drain handed out %d events, want %d", cancelAt, n, want)
	}

	var never context.Context // nil: engines pass a caller's nil ctx on
	q, n = fill(), 0
	if q.Drain(never, arrivals, 0, func(float64, int) bool { n++; return true }) || n != 1003 {
		t.Fatalf("nil-ctx Drain handed out %d events, want 1003", n)
	}
}
