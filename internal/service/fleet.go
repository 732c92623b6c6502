package service

// POST /v1/fleet: one request simulates a whole device population. Fleet
// sweeps differ from /v1/run in kind, not just size — minutes-long, bounded
// memory by construction, results already aggregated — so they get their own
// execution budget, a single-concurrency gate instead of the per-run
// admission queue, and progress gauges (devices done/total, peak heap)
// published through /metrics while the sweep runs.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"quetzal/internal/experiments"
	"quetzal/internal/fleet"
)

// fleetRequest is the body of POST /v1/fleet: a FleetSpec plus transport
// knobs.
type fleetRequest struct {
	experiments.FleetSpec
	// TimeoutMs shortens the server's fleet budget; it can never extend it.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// fleetResponse is the body of a successful POST /v1/fleet.
type fleetResponse struct {
	// Plan echoes the fully resolved plan (defaults applied), so the caller
	// can reproduce the sweep bit-for-bit from the response alone.
	Plan      string           `json:"plan"`
	Aggregate *fleet.Aggregate `json:"aggregate"`
	Stats     fleet.RunStats   `json:"stats"`
	// Cached marks responses served from the shared store: some replica
	// already ran this exact resolved plan, so no devices were simulated.
	Cached bool `json:"cached,omitempty"`
}

// fleetID derives the store id for a resolved plan. The "f0" prefix keeps
// fleet records disjoint from run records, which hash the RunKey instead.
func fleetID(plan experiments.FleetPlan) string {
	sum := sha256.Sum256([]byte("fleet\x00" + plan.String()))
	return "f0" + hex.EncodeToString(sum[:8])
}

// fleetStored is the store payload for one finished fleet sweep. Stats ride
// along so a cached response is shaped like a fresh one; they describe the
// original execution, not the cache hit.
type fleetStored struct {
	Aggregate *fleet.Aggregate `json:"aggregate"`
	Stats     fleet.RunStats   `json:"stats"`
}

// fleetLookup consults the shared store for a finished identical plan.
func (s *Server) fleetLookup(plan experiments.FleetPlan) (*fleet.Aggregate, fleet.RunStats, bool) {
	if s.cfg.Store == nil {
		return nil, fleet.RunStats{}, false
	}
	rec, ok := s.cfg.Store.Get(fleetID(plan))
	if !ok {
		return nil, fleet.RunStats{}, false
	}
	var st fleetStored
	if err := json.Unmarshal(rec.Payload, &st); err != nil || st.Aggregate == nil {
		s.mStoreErrors.Inc()
		s.cfg.Logf("quetzald: fleet store record %s undecodable: %v", rec.ID, err)
		return nil, fleet.RunStats{}, false
	}
	s.mStoreHits.Inc()
	return st.Aggregate, st.Stats, true
}

// fleetPublish durably records a finished fleet sweep; failures are logged
// and counted, never fatal.
func (s *Server) fleetPublish(plan experiments.FleetPlan, agg *fleet.Aggregate, stats fleet.RunStats) {
	if s.cfg.Store == nil || agg == nil {
		return
	}
	payload, err := json.Marshal(fleetStored{Aggregate: agg, Stats: stats})
	if err != nil {
		s.mStoreErrors.Inc()
		s.cfg.Logf("quetzald: fleet store marshal: %v", err)
		return
	}
	if err := s.cfg.Store.Put(fleetID(plan), "fleet "+plan.String(), payload); err != nil {
		s.mStoreErrors.Inc()
		s.cfg.Logf("quetzald: fleet store put: %v", err)
		return
	}
	s.mStorePuts.Inc()
}

// handleFleet is POST /v1/fleet: decode, validate through FleetSpec.Plan,
// take the single-fleet slot, run.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	var req fleetRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		decodeBodyError(w, err)
		return
	}
	plan, err := req.FleetSpec.Plan()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request: "+err.Error(), 0)
		return
	}

	// A plan some replica already ran is served from the shared store before
	// the single-fleet gate: cache hits are cheap and can overlap a live sweep.
	if agg, stats, ok := s.fleetLookup(plan); ok {
		writeJSON(w, http.StatusOK, fleetResponse{Plan: plan.String(), Aggregate: agg, Stats: stats, Cached: true})
		return
	}

	// One fleet at a time: a second sweep would not queue behind the first in
	// any useful way on the same cores — shed it with a hint instead.
	if !s.fleetBusy.CompareAndSwap(false, true) {
		s.mShed.Inc()
		writeError(w, http.StatusTooManyRequests, "a fleet sweep is already running", s.cfg.FleetTimeout/4)
		return
	}
	defer s.fleetBusy.Store(false)

	timeout := s.cfg.FleetTimeout
	if req.TimeoutMs > 0 {
		if t := time.Duration(req.TimeoutMs) * time.Millisecond; t < timeout {
			timeout = t
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	s.fleetTotal.Store(int64(plan.Devices))
	s.fleetDone.Store(0)
	s.fleetPeakHeap.Store(0)
	s.cfg.Logf("quetzald: fleet start: %s", plan)

	agg, stats, err := fleet.Run(ctx, plan, fleet.Options{
		Workers: s.cfg.Workers,
		OnProgress: func(done, _ int) {
			s.fleetDone.Store(int64(done))
		},
		OnHeapSample: func(heap uint64) {
			for {
				prev := s.fleetPeakHeap.Load()
				if heap <= prev || s.fleetPeakHeap.CompareAndSwap(prev, heap) {
					return
				}
			}
		},
	})
	if err != nil {
		s.mRunErrors.Inc()
		s.cfg.Logf("quetzald: fleet failed: %v", err)
		writeError(w, runErrorStatus(err), fmt.Sprintf("fleet: %v", err), 0)
		return
	}
	s.mFleetsExecuted.Inc()
	s.fleetPublish(plan, agg, stats)
	s.cfg.Logf("quetzald: fleet done: %d devices in %.1fs (%.0f devices/s, peak heap %.1f MiB)",
		stats.Devices, stats.ElapsedSec, stats.DevicesPerSec, float64(stats.PeakHeapBytes)/(1<<20))
	writeJSON(w, http.StatusOK, fleetResponse{Plan: plan.String(), Aggregate: agg, Stats: stats})
}
