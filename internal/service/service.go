// Package service is quetzald's HTTP layer: a long-lived JSON API that
// executes simulation runs on a single-flight, memoizing runner.Pool, so
// identical concurrent requests coalesce into one simulation and repeated
// requests are served from the memo.
//
// The service is hardened the way the paper hardens the device. Quetzal's
// reactor predicts input-buffer overflow from Little's Law and degrades
// work instead of dropping it; quetzald predicts whether a request can
// clear its admission queue before its deadline and sheds it early with
// 429 + Retry-After (see admission.go). Every request runs under a context
// deadline, every handler is panic-isolated, run records are bounded, and
// SIGTERM drains gracefully: in-flight runs finish, new work is refused
// with 503, and the ledger and metrics stay consistent to the last event.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"quetzal/internal/experiments"
	"quetzal/internal/metrics"
	"quetzal/internal/obs"
	"quetzal/internal/runner"
	"quetzal/internal/store"
)

// RunFunc executes one resolved run. The default is Setup.Execute; tests
// inject stubs to script latency, panics and failures.
type RunFunc func(ctx context.Context, key experiments.RunKey) (metrics.Results, error)

// Config tunes a Server. The zero value of every field is a usable default.
type Config struct {
	// Setup is the base experiment setup requests deviate from.
	Setup experiments.Setup
	// Workers bounds concurrent simulations; 0 → one per CPU.
	Workers int
	// RunTimeout is the per-request execution budget; requests may shorten
	// it (timeout_ms) but never extend it. 0 → 60s.
	RunTimeout time.Duration
	// FleetTimeout is the POST /v1/fleet execution budget — fleet sweeps are
	// minutes-long by design, so they get their own clock. 0 → 30m.
	FleetTimeout time.Duration
	// MaxQueue bounds the admission queue (requests admitted but not yet
	// finished); beyond it requests shed with 429. 0 → 4 × workers.
	MaxQueue int
	// MaxSweepKeys bounds the runs in one /v1/sweep request. 0 → 64.
	MaxSweepKeys int
	// MaxBatchKeys bounds the runs in one /v1/batch request. Batch runs
	// execute in the background, so the bound is independent of the sweep
	// one. 0 → 256.
	MaxBatchKeys int
	// MaxBodyBytes bounds request bodies. 0 → 1 MiB.
	MaxBodyBytes int64
	// MaxRecords bounds the run-record index served by /v1/runs/{id};
	// oldest records are evicted first. 0 → 4096.
	MaxRecords int
	// Store, when set, is the durable shared result store: completed runs
	// are published to it and consulted before executing, so replicas
	// pointed at one store directory share a cache and a restart serves
	// previously computed run ids from disk. Nil → in-memory memo only.
	Store *store.Store
	// StoreClaimWait bounds how long a run that lost the store's execution
	// claim polls for the winner's result before executing anyway (the
	// claim is advisory; a crashed winner must not wedge the loser).
	// 0 → 5s.
	StoreClaimWait time.Duration
	// StreamHeartbeat is the keepalive cadence of the streaming endpoints:
	// an idle stream emits a heartbeat event this often. 0 → 5s.
	StreamHeartbeat time.Duration
	// Registry receives the service metrics; nil → a fresh registry.
	Registry *obs.Registry
	// Run overrides the execution function; nil → Setup.Execute.
	Run RunFunc
	// Logf, when set, receives one line per notable event (shed, panic,
	// drain). Nil → silent.
	Logf func(format string, args ...any)
	// Now overrides the clock for tests; nil → time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.RunTimeout <= 0 {
		c.RunTimeout = 60 * time.Second
	}
	if c.FleetTimeout <= 0 {
		c.FleetTimeout = 30 * time.Minute
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.Workers
	}
	if c.MaxSweepKeys <= 0 {
		c.MaxSweepKeys = 64
	}
	// A sweep's new executions are admitted as a unit, so a sweep larger
	// than the admission queue could never be admitted at all.
	if c.MaxSweepKeys > c.MaxQueue {
		c.MaxSweepKeys = c.MaxQueue
	}
	if c.MaxBatchKeys <= 0 {
		c.MaxBatchKeys = 256
	}
	// Same argument for batches: the whole batch is one admission decision.
	if c.MaxBatchKeys > c.MaxQueue {
		c.MaxBatchKeys = c.MaxQueue
	}
	if c.StoreClaimWait <= 0 {
		c.StoreClaimWait = 5 * time.Second
	}
	if c.StreamHeartbeat <= 0 {
		c.StreamHeartbeat = 5 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxRecords <= 0 {
		c.MaxRecords = 4096
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Run == nil {
		c.Run = c.Setup.Execute
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Run-record lifecycle states surfaced by GET /v1/runs/{id}.
const (
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// record is one remembered run outcome.
type record struct {
	Key     experiments.RunKey
	Status  string
	Results metrics.Results
	Err     string
}

// Server is the quetzald HTTP service. Construct with New; all methods are
// safe for concurrent use.
type Server struct {
	cfg  Config
	pool *runner.Pool[experiments.RunKey, metrics.Results]
	adm  *admission
	reg  *obs.Registry

	draining atomic.Bool
	inflight sync.WaitGroup // live HTTP requests, for Drain
	bg       sync.WaitGroup // background batch executions, for Drain

	// baseCtx outlives individual requests: /v1/batch detaches executions
	// from the submitting request's context and runs them under this one.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// Fleet-sweep state: one sweep at a time, with progress published as
	// gauges so /metrics shows a minutes-long sweep moving.
	fleetBusy     atomic.Bool
	fleetDone     atomic.Int64
	fleetTotal    atomic.Int64
	fleetPeakHeap atomic.Uint64

	mu      sync.Mutex
	records map[string]*record
	order   []string // insertion order, for bounded eviction

	// Metric handles, resolved once (hot paths pay one atomic op).
	mRunsExecuted   *obs.Counter
	mCacheHits      *obs.Counter
	mRunErrors      *obs.Counter
	mShed           *obs.Counter
	mPanics         *obs.Counter
	mFleetsExecuted *obs.Counter

	// Store-layer counters (zero and never scraped false when no store is
	// configured). A "hit" is a run served from the shared store instead of
	// simulated; a "miss" is a run that had to execute; claim losses count
	// runs that found another replica already computing their key.
	mStoreHits        *obs.Counter
	mStoreMisses      *obs.Counter
	mStorePuts        *obs.Counter
	mStoreClaimLosses *obs.Counter
	mStoreErrors      *obs.Counter
}

// New builds a Server around cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		adm:     newAdmission(cfg.Workers, cfg.MaxQueue, cfg.Now),
		reg:     cfg.Registry,
		records: make(map[string]*record),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.mRunsExecuted = s.reg.Counter("quetzald_runs_executed_total")
	s.mCacheHits = s.reg.Counter("quetzald_run_cache_hits_total")
	s.mRunErrors = s.reg.Counter("quetzald_run_errors_total")
	s.mShed = s.reg.Counter("quetzald_shed_total")
	s.mPanics = s.reg.Counter("quetzald_panics_total")
	s.mFleetsExecuted = s.reg.Counter("quetzald_fleets_executed_total")
	s.mStoreHits = s.reg.Counter("quetzald_store_hits_total")
	s.mStoreMisses = s.reg.Counter("quetzald_store_misses_total")
	s.mStorePuts = s.reg.Counter("quetzald_store_puts_total")
	s.mStoreClaimLosses = s.reg.Counter("quetzald_store_claim_losses_total")
	s.mStoreErrors = s.reg.Counter("quetzald_store_errors_total")

	// The pool consults the store before executing: the store wrapper sits
	// between the single-flight layer and the simulator, so a key that any
	// replica has already computed is served from disk instead of re-run.
	runFn := cfg.Run
	if cfg.Store != nil {
		runFn = s.withStore(runFn)
	}
	s.pool = runner.New(runner.Func[experiments.RunKey, metrics.Results](runFn),
		runner.Config[experiments.RunKey]{
			Workers: cfg.Workers,
			// Backstop under the admission gate: even if every admitted
			// request lands in the pool at once, waiters stay bounded and
			// overflow fails fast as 429 instead of blocking.
			MaxWaiters: cfg.MaxQueue,
			// OnEvent is serialized by the pool, so these counters move in
			// lockstep with the ledger: at any quiescent point
			// quetzald_runs_executed_total == Ledger().Executed exactly.
			OnEvent: func(ev runner.Event[experiments.RunKey]) {
				if ev.Cached {
					s.mCacheHits.Inc()
					return
				}
				s.mRunsExecuted.Inc()
				if ev.Err != nil {
					s.mRunErrors.Inc()
				}
				s.adm.observe(ev.Duration)
			},
		})
	return s
}

// Ledger returns the underlying pool's work summary.
func (s *Server) Ledger() runner.Ledger { return s.pool.Ledger() }

// runID derives the stable identifier for a key: requests for the same run
// share an id, matching the pool's coalescing.
func runID(key experiments.RunKey) string {
	sum := sha256.Sum256([]byte(key.String()))
	return hex.EncodeToString(sum[:8])
}

// remember upserts a record, evicting the oldest entries beyond MaxRecords.
// A completed record is never downgraded back to running by a late
// duplicate request.
func (s *Server) remember(id string, upd record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.records[id]; ok {
		if upd.Status == StatusRunning && prev.Status != StatusRunning {
			return
		}
		*prev = upd
		return
	}
	r := upd
	s.records[id] = &r
	s.order = append(s.order, id)
	for len(s.order) > s.cfg.MaxRecords {
		delete(s.records, s.order[0])
		s.order = s.order[1:]
	}
}

// lookup fetches a record snapshot by id.
func (s *Server) lookup(id string) (record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.records[id]
	if !ok {
		return record{}, false
	}
	return *r, true
}

// BeginDrain flips the server into draining mode: /healthz turns 503 and
// new API requests are refused, while in-flight requests keep running and
// /metrics stays up for the final scrape.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain enters draining mode and waits for in-flight requests — and any
// background batch executions — to finish, or for ctx to expire. On a
// clean drain the ledger and metrics agree: the pool's OnEvent stream is
// serialized, so the last event lands before the last handler returns.
// Results published to a configured store survive the drain by
// construction: Put fsyncs before the execution is reported done.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		s.bg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.baseCancel()
		return nil
	case <-ctx.Done():
		s.baseCancel() // abandon stuck background work; the memo is not poisoned
		return ctx.Err()
	}
}

// WriteMetrics refreshes the gauges and dumps the registry to path —
// the shutdown flush behind quetzald's -metrics flag.
func (s *Server) WriteMetrics(path string) error {
	s.refreshGauges()
	return obs.WriteMetricsFile(path, s.reg)
}

// refreshGauges publishes point-in-time state (queue depth, Little's-Law
// estimates, ledger timings) into the registry before a scrape.
func (s *Server) refreshGauges() {
	st := s.adm.snapshot()
	ps := s.pool.Stats()
	s.reg.Gauge("quetzald_queue_depth").Set(float64(st.Queued))
	s.reg.Gauge("quetzald_pool_waiting").Set(float64(ps.Waiting))
	s.reg.Gauge("quetzald_pool_running").Set(float64(ps.Running))
	s.reg.Gauge("quetzald_service_seconds_ewma").Set(st.ServiceEWMA)
	s.reg.Gauge("quetzald_lambda").Set(st.Lambda)
	s.reg.Gauge("quetzald_predicted_occupancy").Set(st.PredictedOcc)
	s.reg.Gauge("quetzald_fleet_devices_done").Set(float64(s.fleetDone.Load()))
	s.reg.Gauge("quetzald_fleet_devices_total").Set(float64(s.fleetTotal.Load()))
	s.reg.Gauge("quetzald_fleet_peak_heap_bytes").Set(float64(s.fleetPeakHeap.Load()))
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		s.reg.Gauge("quetzald_store_records").Set(float64(st.Records))
		s.reg.Gauge("quetzald_store_segments").Set(float64(st.Segments))
		s.reg.Gauge("quetzald_store_torn_segments").Set(float64(st.TornSegs))
	}
	l := s.pool.Ledger()
	s.reg.Gauge("quetzald_run_seconds_total").Set(l.RunTime.Seconds())
	s.reg.Gauge("quetzald_queue_wait_seconds_total").Set(l.QueueWait.Seconds())
	if l.Latency != nil {
		s.reg.AddHistogram("quetzald_run_seconds", l.Latency)
	}
}

var _ http.Handler = (*obs.Registry)(nil) // the /metrics mount below relies on this
