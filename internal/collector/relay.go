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
// A frame whose answer names the items the upstream refused (it carries
// X-Folded-Items) is not folded back: the refused items would be refused
// again on every flush, and the folded ones would count twice. Its
// refused items are lost the same way. Answers without the header fold
// back: a transport error, 429 or 503 after the retries, 408.
//
// With a store mounted on Local the relay becomes a durable spool: leaf
// pushes are on disk before they are acked, and at the end of every
// non-empty flush, failed or not, the relay checkpoints the store. Local
// then holds exactly what the upstream is still owed, so a crash replays
// neither envelopes the upstream already has nor ones it refused, and
// through an upstream outage the spool holds one snapshot plus the
// segments logged since it. A crash between Take and the checkpoint
// re-pushes that flush — at-least-once upstream, never data loss.
// Durable relays must leave the store's automatic snapshots off
// (Options.SnapshotAfter < 0; ppd relay does): a snapshot between Take
// and a fold-back would capture the emptied aggregate and orphan the
// taken envelopes.
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
	// that could not fold back into Local, and the items the upstream
	// refused by name.
	RefoldDropped uint64 `json:"refold_dropped"`
	// Checkpoints counts the spool snapshots taken at the end of flushes.
	Checkpoints uint64 `json:"checkpoints"`
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

// Start launches the periodic flush loop. Each failed flush's error goes
// to report (a nil report drops them); report runs on the loop's
// goroutine, so the next flush waits for it. From Start on, Local's
// /metrics carries the relay's counters as its "relay" object. Call Stop
// to flush the tail and halt.
func (r *Relay) Start(report func(error)) {
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	r.Local.relay.Store(r)
	go func() {
		defer close(r.done)
		t := time.NewTicker(r.interval())
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if err := r.FlushOnce(context.Background()); err != nil && report != nil {
					report(err)
				}
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
// into the local collector unless the upstream's answer named the items
// it refused, and the first error is returned after the remaining frames
// are attempted; it also names the refused items that were lost. With a
// store mounted, a flush that took anything ends with a checkpoint.
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
		case errors.As(err, &ae) && ae.ItemsNamed:
			// The upstream refused the named items for good and folded
			// the others, so folding the frame back would push them all
			// again on the next flush: the refused items are lost.
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
	if r.Local.Store() != nil {
		// Local holds what leaves pushed since Take plus the frames folded
		// back: exactly what the upstream is still owed. Checkpoint the
		// spool, so a crash replay re-delivers nothing the upstream
		// already has or refused.
		if err := r.Local.Checkpoint(); err != nil {
			if firstErr != nil {
				err = fmt.Errorf("%w; relay: checkpoint: %w", firstErr, err)
			}
			firstErr = err
		} else {
			r.checkpoints.Add(1)
		}
	}
	return firstErr
}
