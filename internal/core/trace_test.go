package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestTraceWritesTimeSeries(t *testing.T) {
	var b strings.Builder
	p := quickParams()
	p.Trace = &b
	run(t, p)
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) < 3 {
		t.Fatalf("trace has %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "time,births,deaths,queries") {
		t.Fatalf("bad header %q", lines[0])
	}
	// Rows have 8 comma-separated fields and non-decreasing time.
	prevTime := ""
	for _, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if len(fields) != 8 {
			t.Fatalf("row %q has %d fields", line, len(fields))
		}
		if prevTime != "" && len(fields[0]) < len(prevTime) {
			t.Fatalf("time went backwards: %q after %q", fields[0], prevTime)
		}
		prevTime = fields[0]
	}
}

type failingWriter struct{ err error }

func (w failingWriter) Write([]byte) (int, error) { return 0, w.err }

func TestTraceWriterErrorSurfaces(t *testing.T) {
	wantErr := errors.New("disk full")
	p := quickParams()
	p.Trace = failingWriter{err: wantErr}
	e, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background()); !errors.Is(err, wantErr) {
		t.Fatalf("Run error = %v, want wrapped %v", err, wantErr)
	}
}

// TestAppendTraceRowMatchesFmt pins the buffered trace row to the
// fmt format string it replaced.
func TestAppendTraceRowMatchesFmt(t *testing.T) {
	e, err := New(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		now                    float64
		births, deaths, q, sat int
		probes                 int64
		avgHeld, avgLive       float64
	}{
		{0, 0, 0, 0, 0, 0, 0, 0},
		{100, 1, 2, 3, 4, 5, 6.125, 7.005},
		{4503.5, 120, 119, 88123, 87999, 912345678, 99.999, 0.004},
		{1e9, 1 << 30, 1, 1, 1, 1 << 40, 123456.789, 0.5},
	}
	for _, c := range cases {
		e.now = c.now
		e.res.Births, e.res.Deaths = c.births, c.deaths
		e.res.Queries, e.res.Satisfied = c.q, c.sat
		e.res.ProbesTotal = c.probes
		want := fmt.Sprintf("%.0f,%d,%d,%d,%d,%d,%.2f,%.2f\n",
			c.now, c.births, c.deaths, c.q, c.sat, c.probes, c.avgHeld, c.avgLive)
		got := string(e.appendTraceRow(nil, c.avgHeld, c.avgLive))
		if got != want {
			t.Fatalf("trace row mismatch:\ngot  %q\nwant %q", got, want)
		}
	}
}
