package kmgraph

// Golden equivalence tests for the shard-direct load path: OpenCluster
// (store-backed or stream-backed) must produce a residency bit-identical
// to NewCluster on the same graph and seed — same partition, same labels
// and forests, same rounds, and the same full Metrics fingerprint (the
// LinkBits matrix included). Any drift means the loader changed the
// simulation, which would invalidate every cross-path comparison the
// E15 experiment makes.

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// clusterFingerprint runs a fixed job sequence against a cluster and
// folds every observable — labels, components, forests, MST edges,
// batch verdicts, phases, rounds, and the full load/total Metrics — into
// comparable values.
type clusterObs struct {
	loadFP, totalFP uint64
	loadRounds      int
	query           QueryResult
	mst             []Edge
	mstWeight       int64
	batch           BatchResult
	query2          QueryResult
	edges           int
}

func observeCluster(t *testing.T, c *Cluster) clusterObs {
	t.Helper()
	ctx := context.Background()
	var o clusterObs
	met := c.Metrics()
	o.loadFP = metricsFingerprint(&met.Load)
	o.loadRounds = met.LoadRounds

	q, err := c.Connectivity(ctx)
	if err != nil {
		t.Fatalf("Connectivity: %v", err)
	}
	o.query = *q

	mst, err := c.MST(ctx)
	if err != nil {
		t.Fatalf("MST: %v", err)
	}
	o.mst, o.mstWeight = mst.Edges, mst.TotalWeight

	ops := []EdgeOp{
		{U: 0, V: 1},
		{U: 2, V: 3, Del: true},
		{U: 5, V: 9, W: 4},
		{U: 5, V: 9}, // duplicate: rejected
	}
	br, err := c.ApplyBatch(ctx, ops)
	if err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	o.batch = *br

	q2, err := c.Connectivity(ctx)
	if err != nil {
		t.Fatalf("second Connectivity: %v", err)
	}
	o.query2 = *q2

	met = c.Metrics()
	o.totalFP = metricsFingerprint(&met.Total)
	o.edges = met.Edges
	return o
}

func TestGoldenOpenClusterMatchesNewCluster(t *testing.T) {
	g := WithDistinctWeights(GNM(800, 2400, 21), 22)
	dir := t.TempDir()
	storePath := filepath.Join(dir, "g.kmgs")
	if err := WriteStore(storePath, g.Source()); err != nil {
		t.Fatalf("WriteStore: %v", err)
	}
	textPath := filepath.Join(dir, "g.txt")
	f, err := os.Create(textPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteEdgeList(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()

	opts := []ClusterOption{WithK(8), WithSeed(7)}

	mem, err := NewCluster(g, opts...)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer mem.Close()
	want := observeCluster(t, mem)

	for name, open := range map[string]func() (*Cluster, error){
		"store":  func() (*Cluster, error) { return OpenCluster(storePath, opts...) },
		"text":   func() (*Cluster, error) { return OpenCluster(textPath, opts...) },
		"source": func() (*Cluster, error) { return OpenCluster("", append(opts, WithEdgeSource(g.Source()))...) },
	} {
		c, err := open()
		if err != nil {
			t.Fatalf("%s: OpenCluster: %v", name, err)
		}
		got := observeCluster(t, c)
		c.Close()
		if got.loadFP != want.loadFP || got.loadRounds != want.loadRounds {
			t.Errorf("%s: load metrics fingerprint drifted from NewCluster", name)
		}
		if got.totalFP != want.totalFP {
			t.Errorf("%s: total metrics fingerprint drifted from NewCluster", name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: job observables drifted from NewCluster:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

func TestOpenClusterArgumentErrors(t *testing.T) {
	if _, err := OpenCluster(""); err == nil {
		t.Error("empty path without WithEdgeSource accepted")
	}
	if _, err := OpenCluster("/nonexistent/x.kmgs"); err == nil {
		t.Error("missing file accepted")
	}
	g := Path(4)
	if _, err := OpenCluster("some/path", WithEdgeSource(g.Source())); err == nil {
		t.Error("path plus WithEdgeSource accepted")
	}
	if _, err := NewCluster(g, WithEdgeSource(g.Source())); err == nil {
		t.Error("NewCluster with WithEdgeSource accepted")
	}
}

// TestOpenClusterServesStreamedGenerator exercises the full out-of-core
// pipeline in-process: stream a generator to a store on disk, serve it
// with OpenCluster, and check the answer against the streaming
// union-find oracle.
func TestOpenClusterServesStreamedGenerator(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rmat.kmgs")
	src := StreamRMAT(3000, 9000, 5)
	if err := WriteStore(path, src); err != nil {
		t.Fatalf("WriteStore: %v", err)
	}
	stored, closer, err := OpenSource(path)
	if err != nil {
		t.Fatal(err)
	}
	wantComps, err := ComponentsFromSourceOracle(stored)
	closer.Close()
	if err != nil {
		t.Fatal(err)
	}

	c, err := OpenCluster(path, WithK(8), WithSeed(3))
	if err != nil {
		t.Fatalf("OpenCluster: %v", err)
	}
	defer c.Close()
	q, err := c.Connectivity(context.Background())
	if err != nil {
		t.Fatalf("Connectivity: %v", err)
	}
	if q.Components != wantComps {
		t.Fatalf("components: got %d, want %d (oracle)", q.Components, wantComps)
	}
}
