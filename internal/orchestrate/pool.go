package orchestrate

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/experiments"
	"repro/node/memnet"
)

// LocalPool is a coordinator plus K in-process workers wired over
// node/memnet streams — the complete wire path (framing, checksums,
// dispatch, reassembly) without sockets or extra processes. It backs
// guess-sweep -smoke and is the reference executor the distributed
// byte-identity tests compare against.
type LocalPool struct {
	coord  *Coordinator
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

var _ experiments.Executor = (*LocalPool)(nil)

// NewLocalPool starts a coordinator with the given number of
// in-process workers.
func NewLocalPool(workers int, cfg Config) (*LocalPool, error) {
	if workers < 1 {
		workers = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &LocalPool{coord: New(cfg), cancel: cancel}
	n := memnet.New(1)
	l := n.ListenStream()
	defer l.Close()
	for i := 0; i < workers; i++ {
		client, err := n.DialStream(l.AddrPort())
		if err != nil {
			cancel()
			p.coord.Close()
			return nil, fmt.Errorf("orchestrate: local pool: %w", err)
		}
		server, err := l.Accept()
		if err != nil {
			cancel()
			p.coord.Close()
			return nil, fmt.Errorf("orchestrate: local pool: %w", err)
		}
		name := fmt.Sprintf("local-%d", i)
		p.wg.Add(2)
		go func() {
			defer p.wg.Done()
			p.coord.HandleWorker(server)
		}()
		go func() {
			defer p.wg.Done()
			RunWorker(ctx, client, name)
		}()
	}
	p.coord.WaitWorkers(workers)
	return p, nil
}

// RunPoints implements experiments.Executor.
func (p *LocalPool) RunPoints(ctx context.Context, pts []experiments.Point) ([]experiments.PointResult, error) {
	return p.coord.RunPoints(ctx, pts)
}

// Stats exposes the underlying coordinator's counters.
func (p *LocalPool) Stats() Stats { return p.coord.Stats() }

// Close stops the workers and the coordinator and waits for both to
// unwind. The pool is unusable afterwards.
func (p *LocalPool) Close() {
	p.cancel()
	p.coord.Close()
	p.wg.Wait()
}
