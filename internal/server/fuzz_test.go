package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"kmgraph"
)

// FuzzServeBodies: whatever a client posts as a batch or verify body, the
// server answers it without a panic or a 5xx, a 200 batch reply accounts
// for every op it received, and the graph still answers connectivity
// afterwards. The first byte of the input picks the endpoint (even:
// batch, odd: verify); the rest is the body. Each input gets a fresh
// Cluster on Path(40), so a crasher replays alone.
func FuzzServeBodies(f *testing.F) {
	batch := func(body string) []byte { return append([]byte{0}, body...) }
	verify := func(body string) []byte { return append([]byte{1}, body...) }
	for _, seed := range [][]byte{
		batch(`{"ops":[{"u":0,"v":5},{"u":3,"v":4,"del":true}]}`), // valid insert and delete
		batch(`{"ops":[{"u":0,"v":1}]}`),                          // duplicate insert
		batch(`{"ops":[{"u":0,"v":5,"del":true}]}`),               // absent delete
		batch(`{"ops":[{"u":2,"v":2}]}`),                          // self-loop
		batch(`{"ops":[{"u":0,"v":40},{"u":-1,"v":3}]}`),          // out of range
		batch(`{"ops":[{"u":0,"v":4611686018427387904}]}`),        // huge vertex
		batch(`{"ops":[{"u":0,"v":7,"w":-5}]}`),                   // negative weight
		batch(`{"ops":[]}`),                                       // empty op list
		batch(`{"ops":[{"u":`),                                    // malformed JSON
		verify(`{"problem":"scs","h":[{"u":0,"v":1},{"u":1,"v":2}]}`),
		verify(`{"problem":"cut","cut":[{"u":9,"v":10}]}`),
		verify(`{"problem":"stconn","s":0,"t":39}`),
		verify(`{"problem":"allpaths","s":0,"t":39,"e":{"u":5,"v":6}}`),
		verify(`{"problem":"stcut","s":0,"t":39,"cut":[{"u":5,"v":6}]}`),
		verify(`{"problem":"bipartite"}`),
		verify(`{"problem":"cycle"}`),
		verify(`{"problem":"ecycle","e":{"u":5,"v":6}}`),
		verify(`{"problem":"stconn","s":0,"t":4611686018427387904}`),
		verify(`{"problem":"nope"}`),
		verify(`{"problem":`),
	} {
		f.Add(seed)
	}
	g := kmgraph.Path(40)

	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		c, err := kmgraph.NewCluster(g, kmgraph.WithK(2), kmgraph.WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		s := New(Config{})
		defer s.Close()
		if err := s.Register("g", c); err != nil {
			t.Fatal(err)
		}
		serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
			return rec
		}

		path := "/graphs/g/batch"
		if in[0]%2 == 1 {
			path = "/graphs/g/verify"
		}
		rec := serve(http.MethodPost, path, in[1:])
		if rec.Code >= 500 {
			t.Fatalf("POST %s %q: status %d: %s", path, in[1:], rec.Code, rec.Body)
		}
		if path == "/graphs/g/batch" && rec.Code == http.StatusOK {
			var br batchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
				t.Fatalf("batch reply %q: %v", rec.Body, err)
			}
			if br.Applied+br.RejectedInserts+br.RejectedDeletes+br.RejectedInvalid != br.Ops {
				t.Fatalf("batch reply does not account for its %d ops: %+v", br.Ops, br)
			}
		}
		if rec := serve(http.MethodGet, "/graphs/g/connectivity", nil); rec.Code != http.StatusOK {
			t.Fatalf("connectivity after POST %s %q: status %d: %s", path, in[1:], rec.Code, rec.Body)
		}
	})
}
