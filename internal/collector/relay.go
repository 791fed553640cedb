package collector

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"pathprof/internal/wire"
)

// Relay turns a collector into an interior node of a fan-in tree: leaf
// producers push to a nearby relay collector, which folds their
// envelopes into its shard aggregates as usual, and a background loop
// periodically Takes the merged aggregate and pushes it upstream as a
// handful of batched frames — one pre-merged envelope per program
// instead of one per producer push. Stacking relays gives each tier a
// bounded fan-in, which is what lets a single root collector absorb
// tens of thousands of producers.
//
// Because folding is associative and commutative, the root's merged
// tables are byte-identical to what direct pushes would have produced,
// whatever the relay topology or flush timing.
//
// A failed upstream push (after the client's retries) folds the frame
// back into the local collector, so data survives upstream outages and
// rides along with the next flush. An item that no longer folds, because
// a leaf pushed a conflicting envelope of its program since Take, is
// lost: FlushOnce counts it in RefoldDropped and names it in its error.
// A frame the upstream folded in part (its answer's X-Folded-Items is
// above 0) is not folded back, since the next flush would deliver its
// folded items twice; its refused items are lost the same way.
//
// With a store mounted on Local the relay becomes a durable spool:
// leaf pushes are on disk before they are acked, a crash replays
// everything not yet flushed, and after a fully successful flush the
// relay checkpoints the store so the replayed spool never re-delivers
// envelopes the upstream already has. A crash between the upstream ack
// and the checkpoint re-pushes that flush — at-least-once upstream,
// never data loss. Durable relays must leave timed store snapshots off
// (ppd relay does): a snapshot between Take and a failure re-ingest
// would capture the emptied aggregate and orphan the taken envelopes.
type Relay struct {
	// Local is the collector absorbing leaf pushes; serve its Handler.
	Local *Collector
	// Upstream pushes the merged batches; give it a RetryPolicy.
	Upstream *Client
	// Interval is the flush period (default 1s).
	Interval time.Duration
	// MaxItems caps envelopes per upstream frame (default 64); a Take
	// spanning more programs is split into multiple frames.
	MaxItems int

	framesPushed    atomic.Uint64
	envelopesPushed atomic.Uint64
	flushFailures   atomic.Uint64
	refoldDropped   atomic.Uint64
	checkpoints     atomic.Uint64

	stop chan struct{}
	done chan struct{}
}

// RelayStats counts the relay's upstream traffic.
type RelayStats struct {
	FramesPushed    uint64 `json:"frames_pushed"`
	EnvelopesPushed uint64 `json:"envelopes_pushed"`
	FlushFailures   uint64 `json:"flush_failures"`
	// RefoldDropped counts items of refused frames that were lost: items
	// that could not fold back into Local, and the refused items of
	// frames the upstream folded in part.
	RefoldDropped uint64 `json:"refold_dropped"`
	Checkpoints   uint64 `json:"checkpoints"`
}

func (r *Relay) interval() time.Duration {
	if r.Interval > 0 {
		return r.Interval
	}
	return time.Second
}

func (r *Relay) maxItems() int {
	if r.MaxItems > 0 {
		return r.MaxItems
	}
	return 64
}

// Start launches the periodic flush loop. Call Stop to flush the tail
// and halt.
func (r *Relay) Start() {
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	go func() {
		defer close(r.done)
		t := time.NewTicker(r.interval())
		defer t.Stop()
		for {
			select {
			case <-t.C:
				r.FlushOnce(context.Background())
			case <-r.stop:
				return
			}
		}
	}()
}

// Stop halts the flush loop and pushes whatever the local collector
// still holds. The local collector keeps serving; shut it down
// separately.
func (r *Relay) Stop(ctx context.Context) error {
	if r.stop != nil {
		close(r.stop)
		<-r.done
	}
	return r.FlushOnce(ctx)
}

// Stats returns a snapshot of the relay's counters.
func (r *Relay) Stats() RelayStats {
	return RelayStats{
		FramesPushed:    r.framesPushed.Load(),
		EnvelopesPushed: r.envelopesPushed.Load(),
		FlushFailures:   r.flushFailures.Load(),
		RefoldDropped:   r.refoldDropped.Load(),
		Checkpoints:     r.checkpoints.Load(),
	}
}

// FlushOnce takes the local aggregate and pushes it upstream in frames
// of at most MaxItems envelopes. A frame whose push fails is folded back
// into the local collector unless the upstream folded some of its items,
// and the first error is returned after the remaining frames are
// attempted; it also names the refused items that were lost.
func (r *Relay) FlushOnce(ctx context.Context) error {
	profiles, exports := r.Local.Take()
	if len(profiles) == 0 && len(exports) == 0 {
		return nil
	}

	bw := wire.NewBatchWriter()
	var firstErr, refoldErr, partErr error
	var refused, dropped, lost int
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	push := func() {
		if bw.Items() == 0 {
			return
		}
		frame := bw.Frame()
		_, err := r.Upstream.PushFrame(ctx, frame)
		var ae *apiError
		switch {
		case err == nil:
			r.framesPushed.Add(1)
			r.envelopesPushed.Add(uint64(bw.Items()))
		case errors.As(err, &ae) && ae.Folded > 0:
			// The upstream folded part of the frame, so folding it back
			// would push those items again on the next flush: the items
			// it refused are lost.
			r.flushFailures.Add(1)
			n := bw.Items() - min(ae.Folded, bw.Items())
			err = fmt.Errorf("relay: upstream folded %d of %d items and refused %d, which were dropped: %w",
				bw.Items()-n, bw.Items(), n, err)
			fail(err)
			if partErr == nil {
				partErr = err
			}
			lost += n
		default:
			r.flushFailures.Add(1)
			fail(err)
			refused += bw.Items()
			// Each item folds on its own, so one that conflicts with what
			// leaves pushed since Take does not keep the others out.
			if profiles, ccts, err := r.Local.foldFrame(frame); profiles+ccts < bw.Items() {
				dropped += bw.Items() - profiles - ccts
				if refoldErr == nil {
					refoldErr = err
				}
			}
		}
		bw.Reset()
	}
	add := func(err error) {
		if err != nil {
			fail(err)
		} else if bw.Items() >= r.maxItems() {
			push()
		}
	}
	for _, p := range profiles {
		add(bw.AddProfile(p))
	}
	for _, ex := range exports {
		add(bw.AddExport(ex))
	}
	push()
	if dropped > 0 {
		r.refoldDropped.Add(uint64(dropped))
		firstErr = fmt.Errorf("%w; relay: %d of %d refused items no longer fold locally and were dropped: %w",
			firstErr, dropped, refused, refoldErr)
	}
	if lost > 0 {
		r.refoldDropped.Add(uint64(lost))
		if !errors.Is(firstErr, partErr) {
			firstErr = fmt.Errorf("%w; %w", firstErr, partErr)
		}
	}
	if firstErr == nil && r.Local.Store() != nil {
		// Everything taken is delivered upstream: checkpoint the spool so
		// a crash replay does not re-deliver it. (The snapshot also
		// captures anything ingested since Take — that is merely early,
		// not wrong: it stays in local memory and flushes next round.)
		if err := r.Local.Checkpoint(); err != nil {
			firstErr = err
		} else {
			r.checkpoints.Add(1)
		}
	}
	return firstErr
}
