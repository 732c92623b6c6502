package service

// The store layer under the single-flight pool. Within one replica the
// pool already guarantees at-most-one execution per key; across replicas
// the shared store plays the same role with no coordination service:
//
//	1. consult the store — a hit is served from disk, byte-authentic;
//	2. take the O_EXCL claim file — the winner simulates and publishes;
//	3. a loser polls for the winner's record (bounded by StoreClaimWait),
//	   reclaims if the claim vanishes without a record, and executes
//	   anyway once the budget is spent — claims are advisory, so a
//	   crashed winner can never wedge a loser.
//
// Runs are deterministic, so a duplicate execution after a lost race is
// wasted work, never wrong work; Put is first-wins idempotent.

import (
	"context"
	"encoding/json"
	"time"

	"quetzal/internal/experiments"
	"quetzal/internal/metrics"
)

// storePollInterval is how often a claim loser re-checks for the winner's
// published record.
const storePollInterval = 10 * time.Millisecond

// withStore wraps the run function with the shared-store protocol above.
func (s *Server) withStore(inner RunFunc) RunFunc {
	st := s.cfg.Store
	return func(ctx context.Context, key experiments.RunKey) (metrics.Results, error) {
		id := runID(key)
		if res, ok := s.storeLookup(id); ok {
			s.mStoreHits.Inc()
			return res, nil
		}
		execute := func() (metrics.Results, error) {
			s.mStoreMisses.Inc()
			res, err := inner(ctx, key)
			if err == nil {
				s.storePublish(id, key, res)
			}
			return res, err
		}
		deadline := time.Now().Add(s.cfg.StoreClaimWait)
		for {
			won, release := st.Claim(id)
			if won {
				// The previous holder may have published and released
				// between our lookup and our claim: re-check first, or a
				// finished key would be simulated twice.
				if res, ok := s.storeLookup(id); ok {
					release()
					s.mStoreHits.Inc()
					return res, nil
				}
				res, err := execute()
				release() // after Put: a loser that sees the claim gone sees the record
				return res, err
			}
			// Another replica is computing this key: poll for its result.
			s.mStoreClaimLosses.Inc()
			for time.Now().Before(deadline) && ctx.Err() == nil && st.Claimed(id) && !st.Has(id) {
				select {
				case <-ctx.Done():
				case <-time.After(storePollInterval):
				}
			}
			if res, ok := s.storeLookup(id); ok {
				s.mStoreHits.Inc()
				return res, nil
			}
			if !time.Now().Before(deadline) || ctx.Err() != nil {
				// The claim went stale (winner crashed?) or our budget is
				// spent: compute without a claim rather than wait forever.
				return execute()
			}
			// The claim vanished without a record (the winner failed):
			// loop and try to take the claim ourselves.
		}
	}
}

// storeLookup fetches and decodes a stored result. A record that fails to
// decode (foreign schema, bit rot the checksum cannot see) is treated as a
// miss, logged and counted in quetzald_store_errors_total — the run
// re-executes and republishes nothing (first wins), so a poisoned record is
// loud but not fatal.
func (s *Server) storeLookup(id string) (metrics.Results, bool) {
	rec, ok := s.cfg.Store.Get(id)
	if !ok {
		return metrics.Results{}, false
	}
	var res metrics.Results
	if err := json.Unmarshal(rec.Payload, &res); err != nil {
		s.mStoreErrors.Inc()
		s.cfg.Logf("quetzald: store record %s undecodable: %v", id, err)
		return metrics.Results{}, false
	}
	return res, true
}

// storePublish durably appends one completed result. Failures are logged
// and counted (quetzald_store_errors_total), not returned: the caller still
// has the in-memory result, and the next replica to compute the key will
// publish it instead.
func (s *Server) storePublish(id string, key experiments.RunKey, res metrics.Results) {
	payload, err := json.Marshal(res)
	if err != nil {
		s.mStoreErrors.Inc()
		s.cfg.Logf("quetzald: store marshal %s: %v", id, err)
		return
	}
	if err := s.cfg.Store.Put(id, key.String(), payload); err != nil {
		s.mStoreErrors.Inc()
		s.cfg.Logf("quetzald: store put %s: %v", id, err)
		return
	}
	s.mStorePuts.Inc()
}
