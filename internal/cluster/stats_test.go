package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"gridstrat/internal/server"
)

// fakeStatsBackend serves a healthy /v1/healthz and a canned /v1/stats
// whose registry totals are the given ones.
func fakeStatsBackend(t *testing.T, totals server.ShardStats) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"status": "ok", "models": totals.Models})
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(server.StatsResponse{Models: totals.Models, Totals: totals})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestRouterStatsTotalsSumEveryField: the router's fleet totals are
// the field-by-field sum of its backends' registry totals, for every
// numeric ShardStats field — including the gauges and tiering counters
// a hand-kept field list can silently drop.
func TestRouterStatsTotalsSumEveryField(t *testing.T) {
	typ := reflect.TypeOf(server.ShardStats{})
	var urls []string
	var want server.ShardStats
	wv := reflect.ValueOf(&want).Elem()
	for bi := 0; bi < 3; bi++ {
		var st server.ShardStats
		v := reflect.ValueOf(&st).Elem()
		for i := 0; i < typ.NumField(); i++ {
			n := int64(100*(bi+1) + i + 1) // distinct, non-zero per field and backend
			switch f := v.Field(i); f.Kind() {
			case reflect.Int, reflect.Int64:
				f.SetInt(n)
				wv.Field(i).SetInt(wv.Field(i).Int() + n)
			case reflect.Uint64:
				f.SetUint(uint64(n))
				wv.Field(i).SetUint(wv.Field(i).Uint() + uint64(n))
			default:
				t.Fatalf("ShardStats.%s has kind %s: extend this test", typ.Field(i).Name, f.Kind())
			}
		}
		urls = append(urls, fakeStatsBackend(t, st))
	}
	rt, err := NewRouter(Config{Backends: urls, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	rt.CheckNow()
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	resp, err := http.Get(front.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var got StatsResponse
	if err := jsonDecode(resp, &got); err != nil {
		t.Fatal(err)
	}
	if got.Partial {
		t.Fatalf("fake backends reported as failed: %v", got.Failed)
	}
	gv := reflect.ValueOf(got.Totals)
	for i := 0; i < typ.NumField(); i++ {
		if g, w := gv.Field(i).Interface(), wv.Field(i).Interface(); g != w {
			t.Errorf("totals.%s = %v, want Σ backends = %v", typ.Field(i).Name, g, w)
		}
	}
}
