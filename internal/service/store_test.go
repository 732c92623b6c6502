package service

import (
	"math"
	"net/http"
	"testing"

	"quetzal/internal/experiments"
	"quetzal/internal/metrics"
	"quetzal/internal/store"
)

// TestStoreErrorsCounted: each store failure the service survives by
// logging — an undecodable record, a result that does not marshal, and a
// Put into a closed store — also bumps quetzald_store_errors_total, so an
// operator sees it on /metrics.
func TestStoreErrorsCounted(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{Store: st})
	storeErrors := func() int64 {
		t.Helper()
		_, body := get(t, ts, "/metrics")
		return metricValue(t, body, "quetzald_store_errors_total")
	}

	// A corrupt payload under a run id: the GET fallback reads it, fails to
	// decode it and answers as for an unknown id.
	const corruptID = "00000000000000ab"
	if err := st.Put(corruptID, "corrupt", []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	if resp, body := get(t, ts, "/v1/runs/"+corruptID); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET corrupt record: %d %s", resp.StatusCode, body)
	}
	if got := storeErrors(); got != 1 {
		t.Fatalf("after undecodable record: store errors = %d, want 1", got)
	}

	// A result JSON cannot encode (NaN) fails to marshal.
	srv.storePublish("00000000000000cd", experiments.RunKey{}, metrics.Results{HarvestedJoules: math.NaN()})
	if got := storeErrors(); got != 2 {
		t.Fatalf("after marshal failure: store errors = %d, want 2", got)
	}

	// A run that completes after the store closed still answers, but its
	// Put fails.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts, "/v1/run", `{"system":"qz","env":"crowded","events":7}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST after store close: %d %s", resp.StatusCode, body)
	}
	if got := storeErrors(); got != 3 {
		t.Fatalf("after Put on a closed store: store errors = %d, want 3", got)
	}
	if puts := srv.mStorePuts.Value(); puts != 0 {
		t.Errorf("store puts = %d, want 0", puts)
	}
}
