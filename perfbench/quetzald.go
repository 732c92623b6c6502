package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"quetzal/internal/experiments"
	"quetzal/internal/metrics"
	"quetzal/internal/service"
	"quetzal/internal/sim"
	"quetzal/internal/store"
)

// quetzald-mixed: an in-process quetzald on loopback HTTP with a durable
// store, driven open-loop at a fixed rate over two connections.
const (
	qzRate    = 100.0 // requests per second
	qzConns   = 2
	qzWorkers = 2
	qzEvents  = 40
	qzHotKeys = 16
	qzTimeout = 2 * time.Second
	// qzCheckSample is how many keys of each kind are re-run directly with
	// Setup.Execute after the window and compared with what was served.
	qzCheckSample = 4
	// Request mix, in percent: hot keys (memo hits), warm keys (in the store
	// from an earlier server instance), cold keys (simulate, Put, fsync);
	// the rest are GET /v1/runs/{id} of hot ids.
	qzHotPct, qzWarmPct, qzColdPct = 60, 10, 20
)

type reqKind int

const (
	kindHot reqKind = iota
	kindWarm
	kindCold
	kindGet
)

var kindNames = [...]string{"hot", "warm", "cold", "get"}

// plannedReq is one request of the schedule: its kind and key index within
// that kind (GETs index the hot ids).
type plannedReq struct {
	kind reqKind
	key  int
}

// planRequests draws the request schedule from the seed. Warm and cold keys
// are each used once, so every warm request takes the store-read path and
// every cold request simulates.
func planRequests(seed int64, n int) (reqs []plannedReq, warm, cold int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		r := plannedReq{}
		switch u := rng.Intn(100); {
		case u < qzHotPct:
			r = plannedReq{kindHot, rng.Intn(qzHotKeys)}
		case u < qzHotPct+qzWarmPct:
			r = plannedReq{kindWarm, warm}
			warm++
		case u < qzHotPct+qzWarmPct+qzColdPct:
			r = plannedReq{kindCold, cold}
			cold++
		default:
			r = plannedReq{kindGet, rng.Intn(qzHotKeys)}
		}
		reqs = append(reqs, r)
	}
	return reqs, warm, cold
}

// keySpec is the run a key index of a kind names. Kinds draw simulation
// seeds from disjoint ranges derived from the workload seed.
func keySpec(seed int64, kind reqKind, idx int) experiments.KeySpec {
	base := seed * 10_000_000
	offset := map[reqKind]int64{kindHot: 1, kindGet: 1, kindWarm: 1_000_000, kindCold: 5_000_000}[kind]
	return experiments.KeySpec{
		System: experiments.SysQuetzal,
		Env:    experiments.Crowded.Name,
		Events: qzEvents,
		Engine: "event",
		Seed:   base + offset + int64(idx),
	}
}

func qzSetup() experiments.Setup {
	s := experiments.DefaultSetup()
	s.Engine = sim.EventDriven
	s.NumEvents = qzEvents
	return s
}

// runReply is the part of a POST /v1/run or GET /v1/runs/{id} reply the
// benchmark checks.
type runReply struct {
	ID        string           `json:"id"`
	Status    string           `json:"status"`
	Coalesced bool             `json:"coalesced"`
	Results   *metrics.Results `json:"results"`
}

// resultsDigest is the sha256 of the canonical JSON encoding of r.
func resultsDigest(r *metrics.Results) (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// simLog records the wrapped service.Config.Run calls of a traced phase:
// simulation time per run key.
type simLog struct {
	mu    sync.Mutex
	byKey map[string]time.Duration
}

// qzServer is one set-up quetzald: its store, service and loopback listener.
type qzServer struct {
	st     *store.Store
	svc    *service.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	hotIDs []string
	openMs float64
	sims   *simLog
}

// close stops the HTTP server, drains the service and closes the store.
func (q *qzServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	q.client.CloseIdleConnections()
	err := q.hs.Shutdown(ctx)
	if serr := <-q.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := q.svc.Drain(ctx); derr != nil && err == nil {
		err = derr
	}
	if cerr := q.st.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// warmStore has an earlier service instance, sharing no memory with the
// measured one, execute every warm key into a fresh store directory.
func warmStore(dir string, seed int64, warm int) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	svc := service.New(service.Config{Setup: qzSetup(), Workers: qzWorkers, Store: st})
	h := svc.Handler()
	errs := make([]error, qzWorkers)
	var wg sync.WaitGroup
	for w := 0; w < qzWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < warm; j += qzWorkers {
				body, err := json.Marshal(keySpec(seed, kindWarm, j))
				if err != nil {
					errs[w] = err
					return
				}
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
				if rr.Code != http.StatusOK {
					errs[w] = fmt.Errorf("warming key %d: HTTP %d: %s", j, rr.Code, rr.Body.String())
					return
				}
			}
		}(w)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = errors.Join(append(errs, svc.Drain(ctx))...)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return err
}

// startServer warms a store, reopens it (timed: the store's index rebuild)
// and serves a fresh service over it on loopback, then primes the hot keys.
func startServer(dir string, seed int64, warm int, traced bool) (*qzServer, error) {
	if err := warmStore(dir, seed, warm); err != nil {
		return nil, err
	}
	t := time.Now()
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	q := &qzServer{st: st, openMs: ms(time.Since(t))}
	if n := st.Len(); n != warm {
		st.Close()
		return nil, fmt.Errorf("reopened store holds %d records, want %d", n, warm)
	}
	base := qzSetup()
	cfg := service.Config{Setup: base, Workers: qzWorkers, Store: st}
	if traced {
		q.sims = &simLog{byKey: map[string]time.Duration{}}
		cfg.Run = func(ctx context.Context, key experiments.RunKey) (metrics.Results, error) {
			t := time.Now()
			res, err := base.Execute(ctx, key)
			d := time.Since(t)
			q.sims.mu.Lock()
			q.sims.byKey[key.String()] = d
			q.sims.mu.Unlock()
			return res, err
		}
	}
	q.svc = service.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	q.url = "http://" + ln.Addr().String()
	q.hs = &http.Server{Handler: q.svc.Handler()}
	q.served = make(chan error, 1)
	go func() { q.served <- q.hs.Serve(ln) }()
	q.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: qzConns, MaxIdleConnsPerHost: qzConns}}
	for k := 0; k < qzHotKeys; k++ {
		body, err := json.Marshal(keySpec(seed, kindHot, k))
		if err == nil {
			var b []byte
			if b, err = do(context.Background(), q.client, http.MethodPost, q.url+"/v1/run", bytes.NewReader(body)); err == nil {
				var rep runReply
				if err = json.Unmarshal(b, &rep); err == nil {
					q.hotIDs = append(q.hotIDs, rep.ID)
				}
			}
		}
		if err != nil {
			return nil, errors.Join(fmt.Errorf("priming hot key %d: %w", k, err), q.close())
		}
	}
	return q, nil
}

// scrape reads the service's /metrics counters.
func (q *qzServer) scrape() (map[string]float64, error) {
	b, err := do(context.Background(), q.client, http.MethodGet, q.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// served is what one request got back.
type served struct {
	id, digest string
	coalesced  bool
}

// qzWindow is one measured load window.
type qzWindow struct {
	reqs     []plannedReq
	samples  []sample
	replies  []served
	stats    loadStats
	peakHeap float64
	before   map[string]float64
	after    map[string]float64
	ledger   [2]int // runner executed, cache hits over the window
	server   *qzServer
	keyStr   []string // RunKey.String() per request, for matching simulations
	steal    *stealSeries
}

// qzSlots is how many equal slots of due time the window is split into.
// Latency quantiles are read per slot and the median over slots reported,
// so a burst of interference in one slot moves the figures little.
const qzSlots = 10

// latencyQuantiles returns the median over due-time slots of each slot's
// p50 and tail of latency from due (+Inf for a failed request). A slot
// during which the hypervisor stole more than maxSteal of the CPU is left
// out, unless that would leave out more than half of them.
func (w *qzWindow) latencyQuantiles() (p50, tail quantile) {
	type slot struct {
		lat   []float64
		steal float64
	}
	slots := make([]slot, qzSlots)
	start := w.samples[0].due
	span := time.Duration(float64(len(w.samples)) / qzRate * float64(time.Second))
	for _, s := range w.samples {
		if s.sent.IsZero() {
			continue
		}
		k := min(int(s.due.Sub(start)*qzSlots/span), qzSlots-1)
		v := math.Inf(1)
		if s.err == nil {
			v = ms(s.latency())
		}
		slots[k].lat = append(slots[k].lat, v)
	}
	for k := range slots {
		slots[k].steal = w.steal.fracOver(start.Add(span*time.Duration(k)/qzSlots), start.Add(span*time.Duration(k+1)/qzSlots))
	}
	var kept []slot
	for _, sl := range slots {
		if sl.steal <= maxSteal && len(sl.lat) > 0 {
			kept = append(kept, sl)
		}
	}
	switch {
	case len(kept)*2 < qzSlots:
		note("the hypervisor stole > %.0f%% of CPU time in %d of %d slots; reporting all of them",
			100*maxSteal, qzSlots-len(kept), qzSlots)
		kept = slots
	case len(kept) < qzSlots:
		note("excluding %d of %d slots during which the hypervisor stole > %.0f%% of CPU time",
			qzSlots-len(kept), qzSlots, 100*maxSteal)
	}
	var p50s, tails []float64
	for _, sl := range kept {
		q, t := percentileOf(sl.lat, 50), tailOf(sl.lat)
		p50s = append(p50s, q.Value)
		tails = append(tails, t.Value)
		p50.P, p50.N = q.P, p50.N+q.N
		tail.P, tail.N = t.P, tail.N+t.N
	}
	p50.Value, tail.Value = median(p50s), median(tails)
	note("latency quantiles: median over %d slots of each slot's p%d and p%d", len(kept), p50.P, tail.P)
	return p50, tail
}

// measureWindow drives the open-loop schedule against q and checks every
// reply.
func measureWindow(rep *result, q *qzServer, seed int64, reqs []plannedReq) (*qzWindow, error) {
	w := &qzWindow{reqs: reqs, server: q, replies: make([]served, len(reqs)), keyStr: make([]string, len(reqs))}
	bodies := make([][]byte, len(reqs))
	for i, r := range reqs {
		if r.kind == kindGet {
			continue
		}
		spec := keySpec(seed, r.kind, r.key)
		key, err := spec.RunKey()
		if err != nil {
			return nil, err
		}
		w.keyStr[i] = key.String()
		if bodies[i], err = json.Marshal(spec); err != nil {
			return nil, err
		}
	}
	var err error
	if w.before, err = q.scrape(); err != nil {
		return nil, err
	}
	l0 := q.svc.Ledger()
	badBody := make([]error, len(reqs))
	send := func(ctx context.Context, i int) error {
		var b []byte
		var err error
		if reqs[i].kind == kindGet {
			b, err = do(ctx, q.client, http.MethodGet, q.url+"/v1/runs/"+q.hotIDs[reqs[i].key], nil)
		} else {
			b, err = do(ctx, q.client, http.MethodPost, q.url+"/v1/run", bytes.NewReader(bodies[i]))
		}
		if err != nil {
			return err
		}
		var r runReply
		if err := json.Unmarshal(b, &r); err != nil {
			badBody[i] = err
			return nil
		}
		if r.Status != service.StatusDone || r.Results == nil {
			badBody[i] = fmt.Errorf("status %q, results present %v", r.Status, r.Results != nil)
			return nil
		}
		d, err := resultsDigest(r.Results)
		if err != nil {
			badBody[i] = err
			return nil
		}
		w.replies[i] = served{id: r.ID, digest: d, coalesced: r.Coalesced}
		return nil
	}

	heap := watchHeap()
	w.steal = watchSteal(100 * time.Millisecond)
	w.samples = openLoop(context.Background(), len(reqs), qzRate, qzConns, qzTimeout, send)
	w.peakHeap = heap.end()
	w.steal.end()
	w.stats = summarize(w.samples)
	l1 := q.svc.Ledger()
	w.ledger = [2]int{l1.Executed - l0.Executed, l1.CacheHits - l0.CacheHits}
	if w.after, err = q.scrape(); err != nil {
		return nil, err
	}
	rep.Attempted += w.stats.attempted
	rep.Failed += w.stats.failed
	for i, e := range badBody {
		if e != nil {
			rep.fail("request %d (%s): 2xx body does not check: %v", i, kindNames[reqs[i].kind], e)
		}
	}
	return w, nil
}

// check verifies that every id was served identical results from memo,
// store and fresh runs alike, that a sample of keys re-run directly with
// Setup.Execute matches, and that the store counters reconcile with the
// request mix.
func (w *qzWindow) check(rep *result, seed int64) {
	byID := map[string]string{}
	sampled := map[reqKind]int{}
	okKind := map[reqKind]int{}
	base := qzSetup()
	for i, r := range w.replies {
		if w.samples[i].err != nil || r.id == "" {
			continue
		}
		okKind[w.reqs[i].kind]++
		if prev, ok := byID[r.id]; ok && prev != r.digest {
			rep.fail("id %s served different results (%s vs %s)", r.id, prev, r.digest)
		}
		byID[r.id] = r.digest
		k := w.reqs[i].kind
		if k == kindGet || sampled[k] >= qzCheckSample {
			continue
		}
		sampled[k]++
		key, err := keySpec(seed, k, w.reqs[i].key).RunKey()
		if err != nil {
			rep.fail("request %d: %v", i, err)
			continue
		}
		res, err := base.Execute(context.Background(), key)
		if err != nil {
			rep.fail("re-running %s: %v", key, err)
			continue
		}
		if d, err := resultsDigest(&res); err != nil || d != r.digest {
			rep.fail("%s key %s: served %s, direct Setup.Execute gives %s (%v)", kindNames[k], key, r.digest, d, err)
		}
	}
	for _, k := range []reqKind{kindHot, kindWarm, kindCold} {
		if okKind[k] > 0 && sampled[k] == 0 {
			rep.fail("no %s key was re-checked", kindNames[k])
		}
	}
	if w.stats.failed == 0 {
		hits := w.after["quetzald_store_hits_total"] - w.before["quetzald_store_hits_total"]
		puts := w.after["quetzald_store_puts_total"] - w.before["quetzald_store_puts_total"]
		if int(hits) != okKind[kindWarm] || int(puts) != okKind[kindCold] {
			rep.fail("store counters: %v hits for %d warm requests, %v puts for %d cold requests",
				hits, okKind[kindWarm], puts, okKind[kindCold])
		}
	}
}

// latencyValue turns a latency quantile into a reportable number: a failed
// request (+Inf) reads as the client timeout, which misses any limit.
func latencyValue(name string, q quantile) float64 {
	noteQ(name, q)
	if math.IsInf(q.Value, 1) {
		note("%s falls on a failed request; reporting the %v client timeout", name, qzTimeout)
		return ms(qzTimeout)
	}
	return q.Value
}

// qzPhase sets up a server (median of setupReps for setup_s when reps > 1),
// measures one window and checks it. The caller closes the server.
func qzPhase(cfg config, rep *result, phase string, seconds float64, reps int, traced bool) (*qzWindow, float64, error) {
	n := int(math.Round(qzRate * seconds))
	reqs, warm, _ := planRequests(cfg.seed, n)
	var (
		q    *qzServer
		secs []float64
	)
	for r := 0; r < reps; r++ {
		if q != nil {
			if err := q.close(); err != nil {
				return nil, 0, err
			}
		}
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("store-%s-%d", phase, r))
		start := time.Now()
		var err error
		if q, err = startServer(dir, cfg.seed, warm, traced); err != nil {
			return nil, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	w, err := measureWindow(rep, q, cfg.seed, reqs)
	if err != nil {
		return nil, 0, errors.Join(err, q.close())
	}
	w.check(rep, cfg.seed)
	return w, median(secs), nil
}

func runQuetzald(cfg config) (*result, error) {
	rep := newResult()
	if cfg.trace {
		return traceQuetzald(cfg, rep)
	}
	w, setup, err := qzPhase(cfg, rep, "run", cfg.seconds, setupReps, false)
	if err != nil {
		return nil, err
	}
	if err := w.server.close(); err != nil {
		return nil, err
	}
	note("%d requests, %d failed, error rate %.4f, %.1f ok/s", w.stats.attempted, w.stats.failed, w.stats.errorRate(), w.stats.okPerSec)
	rep.set("setup_s", setup)
	rep.set("throughput_per_s", w.stats.okPerSec)
	p50, tail := w.latencyQuantiles()
	rep.set("latency_p50_ms", latencyValue("latency_p50_ms", p50))
	rep.set("latency_tail_ms", latencyValue("latency_tail_ms", tail))
	rep.set("peak_heap_mib", w.peakHeap)
	return rep, nil
}

// traceQuetzald measures an untraced window and a traced one (wrapped
// service.Config.Run, client spans per request id), each half the time on
// its own freshly set-up server.
func traceQuetzald(cfg config, rep *result) (*result, error) {
	finish, err := tracedRun(cfg)
	if err != nil {
		return nil, err
	}
	half := cfg.seconds / 2
	plain, _, err := qzPhase(cfg, rep, "untraced", half, 1, false)
	if err != nil {
		return nil, err
	}
	if err := plain.server.close(); err != nil {
		return nil, err
	}
	w, _, err := qzPhase(cfg, rep, "traced", half, 1, true)
	if err != nil {
		return nil, err
	}
	if err := w.server.close(); err != nil {
		return nil, err
	}
	rec := newRecorder()
	var sim, self, hit, coldOver []float64
	coalesced := 0
	simOf := func(i int) (time.Duration, bool) {
		if w.reqs[i].kind != kindCold {
			return 0, false
		}
		w.server.sims.mu.Lock()
		defer w.server.sims.mu.Unlock()
		d, ok := w.server.sims.byKey[w.keyStr[i]]
		return d, ok
	}
	lanes := make([]*lane, qzConns)
	for c := range lanes {
		lanes[c] = rec.lane()
	}
	for i, s := range w.samples {
		if s.sent.IsZero() {
			continue
		}
		l := lanes[s.conn]
		id := int64(i)
		kind := kindNames[w.reqs[i].kind]
		root := len(l.spans)
		l.spans = append(l.spans,
			span{Name: "request." + kind, ID: id, Lane: l.id, Parent: -1, Start: int64(s.due.Sub(rec.t0)), End: int64(s.done.Sub(rec.t0))},
			span{Name: "gen.wait", ID: id, Lane: l.id, Parent: root, Start: int64(s.due.Sub(rec.t0)), End: int64(s.sent.Sub(rec.t0))},
			span{Name: "http." + kind, ID: id, Lane: l.id, Parent: root, Start: int64(s.sent.Sub(rec.t0)), End: int64(s.done.Sub(rec.t0))})
		if d, ok := simOf(i); ok {
			// The simulation ran inside this request's HTTP exchange, on a
			// service worker; it is recorded as a child of that exchange.
			l.spans = append(l.spans, span{Name: "service.simulate", ID: id, Lane: l.id, Parent: root + 2,
				Start: int64(s.done.Sub(rec.t0) - d), End: int64(s.done.Sub(rec.t0))})
		}
		if s.err != nil {
			continue
		}
		if w.replies[i].coalesced {
			coalesced++
		}
		rt := ms(s.done.Sub(s.sent))
		switch w.reqs[i].kind {
		case kindHot:
			hit = append(hit, rt)
			self = append(self, rt)
		case kindWarm:
			self = append(self, rt)
		case kindCold:
			d, ok := simOf(i)
			if !ok {
				rep.fail("cold request %d was served without a simulation", i)
				continue
			}
			sim = append(sim, ms(d))
			self = append(self, rt-ms(d))
		}
	}
	hitP50 := percentileOf(hit, 50).Value
	for i, s := range w.samples {
		if d, ok := simOf(i); ok && s.err == nil {
			coldOver = append(coldOver, ms(s.done.Sub(s.sent))-ms(d)-hitP50)
		}
	}
	if err := finish(rec); err != nil {
		return nil, err
	}
	delta := func(name string) float64 { return w.after[name] - w.before[name] }
	hits, misses := delta("quetzald_store_hits_total"), delta("quetzald_store_misses_total")
	note("untraced p50 %.3f ms, traced p50 %.3f ms", percentileOf(plain.stats.latencyMs, 50).Value, percentileOf(w.stats.latencyMs, 50).Value)
	// Counts are window deltas; the latency histogram and queue wait are the
	// pool's whole ledger, which adds the 16 hot-key priming runs.
	reportRunner(rep, w.server.svc.Ledger())
	rep.set("runner.executed", float64(w.ledger[0]))
	rep.set("runner.cache_hits", float64(w.ledger[1]))
	if tot := w.ledger[0] + w.ledger[1]; tot > 0 {
		rep.set("runner.hit_frac", float64(w.ledger[1])/float64(tot))
	}
	setQ := func(name string, q quantile) {
		noteQ(name, q)
		rep.set(name, q.Value)
	}
	setQ("service.simulate_ms_p50", percentileOf(sim, 50))
	setQ("service.simulate_ms_tail", tailOf(sim))
	setQ("service.self_ms_p50", percentileOf(self, 50))
	setQ("service.self_ms_tail", tailOf(self))
	rep.set("service.hit_ms_p50", hitP50)
	rep.set("service.shed", delta("quetzald_shed_total"))
	rep.set("service.coalesced", float64(coalesced))
	rep.set("store.hits", hits)
	rep.set("store.misses", misses)
	rep.set("store.puts", delta("quetzald_store_puts_total"))
	if hits+misses > 0 {
		rep.set("store.hit_frac", hits/(hits+misses))
	}
	rep.set("store.open_ms", w.server.openMs)
	rep.set("store.cold_overhead_ms", median(coldOver))
	setQ("gen.late_tail_ms", tailOf(w.stats.lateMs))
	// The headline on a fixed-rate load is latency, lower is better.
	rep.set("tracing.overhead_frac", percentileOf(w.stats.latencyMs, 50).Value/percentileOf(plain.stats.latencyMs, 50).Value-1)
	rep.set("tracing.spans", float64(len(rec.all())))
	return rep, nil
}
