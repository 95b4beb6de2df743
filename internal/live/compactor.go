package live

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Compactor is the background fold loop of a never-restarted
// deployment: a goroutine that watches how much journal has
// accumulated since the last fold and triggers Compact — which
// persists the folded base, truncates the journal, and re-bases the
// in-memory store — while the store keeps serving reads and writes.
// Scheduling is jittered so a fleet of replicas with identical write
// rates does not fold in lockstep, and folds are single-flight: the
// store's compactMu serializes the loop with any manual Compact call.
// The poll is only the fallback cadence: Apply nudges a watermark
// channel the moment a journal append crosses the trigger, so write
// bursts fold promptly instead of overshooting the record bound until
// the next poll tick.

// CompactorConfig parameterizes StartCompactor.
type CompactorConfig struct {
	// Interval is the poll cadence; each wait is jittered ±20%.
	// Defaults to 30s.
	Interval time.Duration
	// MinRecords triggers a fold when the journal holds at least this
	// many records (the journal is truncated to the post-fold suffix at
	// every fold, so its record count is exactly the churn since the
	// last fold). Defaults to 8192.
	MinRecords uint64
	// OnFold, when non-nil, observes every fold attempt (stats are
	// meaningful only when err is nil). Called from the compactor
	// goroutine; keep it fast.
	OnFold func(stats CompactStats, took time.Duration, err error)
}

// defaultCompactorRecords is the record trigger applied when a
// compactor is started without one.
const defaultCompactorRecords = 8192

// Compactor runs Compact in the background. Create with
// Store.StartCompactor; stop with Stop.
type Compactor struct {
	store *Store
	cfg   CompactorConfig

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	// wake is the journal-size watermark channel: Apply nudges it
	// (non-blocking) the moment an append crosses the fold trigger, so
	// bursts fold promptly instead of overshooting until the next poll.
	wake chan struct{}

	runs       atomic.Uint64 // folds attempted (trigger fired)
	errs       atomic.Uint64
	wakeups    atomic.Uint64 // folds initiated by the watermark signal
	lastFoldNS atomic.Int64  // duration of the last successful fold
	lastEpoch  atomic.Uint64 // epoch of the last successful fold
}

// CompactorStats is a point-in-time summary of the background
// compactor for observability endpoints.
type CompactorStats struct {
	// Runs counts folds triggered (successful or not); Errors the
	// failed ones; Wakeups the folds initiated by the journal watermark
	// signal rather than the poll timer.
	Runs    uint64 `json:"runs"`
	Errors  uint64 `json:"errors"`
	Wakeups uint64 `json:"wakeups"`
	// LastFoldMS is the wall time of the most recent successful fold
	// (materialize + persist + journal swap + re-base), 0 before any.
	LastFoldMS float64 `json:"last_fold_ms"`
	// LastEpoch is the epoch the most recent successful fold re-based
	// the store onto.
	LastEpoch uint64 `json:"last_epoch"`
}

// StartCompactor launches the background fold loop. It fails on a
// store without a journal (there is nothing to fold) and on a closed
// store.
func (s *Store) StartCompactor(cfg CompactorConfig) (*Compactor, error) {
	s.mu.Lock()
	journaled := s.journal != nil && !s.closed
	s.mu.Unlock()
	if !journaled {
		return nil, fmt.Errorf("start compactor: %w", ErrNoJournal)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 30 * time.Second
	}
	if cfg.MinRecords == 0 {
		cfg.MinRecords = defaultCompactorRecords
	}
	c := &Compactor{
		store: s,
		cfg:   cfg,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		wake:  make(chan struct{}, 1),
	}
	// Register the watermark with the store: Apply signals the channel
	// the moment a journal append crosses the trigger, so the loop
	// folds promptly under bursts; the jittered poll remains as the
	// fallback (and as the only trigger for pre-watermark deployments
	// writing through replay).
	s.setWatermark(c.wake, cfg.MinRecords)
	go c.loop()
	return c, nil
}

func (c *Compactor) loop() {
	defer close(c.done)
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	timer := time.NewTimer(jitter(rng, c.cfg.Interval))
	defer timer.Stop()
	for {
		woken := false
		select {
		case <-c.stop:
			return
		case <-timer.C:
		case <-c.wake:
			woken = true
		}
		if c.due() {
			if woken {
				c.wakeups.Add(1)
			}
			c.fold()
		}
		if woken && !timer.Stop() {
			// Drain the expired timer so Reset arms cleanly.
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(jitter(rng, c.cfg.Interval))
	}
}

// due reports whether the journal accumulated enough since the last
// fold to be worth folding again.
func (c *Compactor) due() bool {
	records, _ := c.store.JournalStats()
	return records >= c.cfg.MinRecords
}

func (c *Compactor) fold() {
	c.runs.Add(1)
	start := time.Now()
	stats, err := c.store.Compact()
	took := time.Since(start)
	if err != nil {
		c.errs.Add(1)
	} else {
		c.lastFoldNS.Store(int64(took))
		c.lastEpoch.Store(stats.Epoch)
	}
	if c.cfg.OnFold != nil {
		c.cfg.OnFold(stats, took, err)
	}
}

// jitter spreads d by ±20% so replicas desynchronize.
func jitter(rng *rand.Rand, d time.Duration) time.Duration {
	return d + time.Duration((rng.Float64()*0.4-0.2)*float64(d))
}

// Stop halts the loop and waits for an in-flight fold to finish. It is
// idempotent and safe to call concurrently.
func (c *Compactor) Stop() {
	c.stopOnce.Do(func() {
		c.store.setWatermark(nil, 0)
		close(c.stop)
	})
	<-c.done
}

// Stats reports the compactor's lifetime counters.
func (c *Compactor) Stats() CompactorStats {
	return CompactorStats{
		Runs:       c.runs.Load(),
		Errors:     c.errs.Load(),
		Wakeups:    c.wakeups.Load(),
		LastFoldMS: float64(c.lastFoldNS.Load()) / float64(time.Millisecond),
		LastEpoch:  c.lastEpoch.Load(),
	}
}
