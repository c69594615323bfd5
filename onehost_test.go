package kmgraph

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// settleGoroutines polls until the goroutine count is back at base (or the
// deadline passes) and returns the last count seen.
func settleGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > base && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestIdleClusterHoldsNoGoroutines pins what running every command as an
// ordinary kmachine run buys: a residency is state, so between jobs a
// Cluster costs memory and not one goroutine (a parked k=8 engine held 11:
// k machines, the coordinator, the Run caller and the transmit pool).
func TestIdleClusterHoldsNoGoroutines(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	base := runtime.NumGoroutine()
	g := GNM(400, 1200, 3)
	c, err := NewCluster(g, WithK(8), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Connectivity(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ApplyBatch(context.Background(), []EdgeOp{{U: 0, V: 399, W: 1}}); err != nil {
		t.Fatal(err)
	}
	// More is a leak; fewer is an earlier test's straggler exiting.
	if n := settleGoroutines(base); n > base {
		t.Errorf("idle Cluster: %d goroutines, %d before NewCluster", n, base)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if n := settleGoroutines(base); n > base {
		t.Errorf("closed Cluster: %d goroutines, %d before NewCluster", n, base)
	}
}

// TestOneHost fails if the residency grows back into a host of its own: a
// machine that idles inside a never-returning run (Park/Unpark), a
// transport that must report in-flight bits for that run's quiescence
// logic (Pending), or a command channel per machine. A command is one
// ordinary kmachine run over state that outlives it.
func TestOneHost(t *testing.T) {
	parked := regexp.MustCompile(`\b(Park|Unpark)\(|\bPending\(\)|\[\]chan\b|chan hostCmd`)
	var sites []string
	nonTestLines(t, func(site, line string) {
		if parked.MatchString(line) {
			sites = append(sites, site)
		}
	}, "internal/kmachine", "internal/transport", "internal/transport/local",
		"internal/transport/tcp", "internal/transport/chaos", "internal/resident")
	if len(sites) != 0 {
		t.Fatalf("the parked-cluster design is back:\n%s", strings.Join(sites, "\n"))
	}
}

// TestOneShard fails if a machine's graph is spelled a second way again: a
// second non-test type under internal/ (besides graph.Graph, the global
// graph the shards are cut from) that hands out adjacency rows, a second
// vertex-partition type or loader beside kmachine.LoadShards{,Range}, or
// one of the four views and two partitions that kmachine.Shard replaced.
func TestOneShard(t *testing.T) {
	adj := regexp.MustCompile(`^func \(\w+ \*?(\w+)\) Adj\(\w+ int\) \[\](?:graph\.)?Half\b`)
	part := regexp.MustCompile(`^type (\w*Partition)\b|^func ((?:New|Load)\w*(?:RVP|Partition|Shard)\w*)\(`)
	gone := regexp.MustCompile(`\b(VertexPartition|LocalView|ShardView|dynView|staticView|NewRVP|NewExplicitPartition|RunWithPartition\w*|TakeAdj|GraphView)\b`)
	allowed := map[string]bool{
		"internal/graph:Graph": true, "internal/kmachine:Shard": true,
		"internal/kmachine:ShardPartition": true, "internal/kmachine:EdgePartition": true,
		"internal/kmachine:LoadShards": true, "internal/kmachine:LoadShardsRange": true, "internal/kmachine:NewShard": true,
	}
	seen := make(map[string]bool)
	var sites []string
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			name := ""
			if m := adj.FindStringSubmatch(line); m != nil {
				name = m[1]
			} else if m := part.FindStringSubmatch(line); m != nil {
				name = m[1] + m[2]
			}
			if key := filepath.ToSlash(filepath.Dir(path)) + ":" + name; name != "" {
				seen[key] = true
				if !allowed[key] {
					sites = append(sites, fmt.Sprintf("%s:%d: %s", path, i+1, strings.TrimSpace(line)))
				}
			}
			if gone.MatchString(line) {
				sites = append(sites, fmt.Sprintf("%s:%d: %s", path, i+1, strings.TrimSpace(line)))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 0 {
		t.Errorf("a machine's graph has a second spelling:\n%s", strings.Join(sites, "\n"))
	}
	for key := range allowed {
		if !seen[key] {
			t.Errorf("%s not found: the guard's patterns no longer match the code they guard", key)
		}
	}
}

// TestOneFrontDoor fails if a package-level twin of a Cluster method, or a
// pass-through to the paper apparatus, is exported again beside the
// Cluster constructors, or if a Theorem 3/4 reduction grows back a host of
// its own (a one-shot runner that builds clusters itself).
func TestOneFrontDoor(t *testing.T) {
	exported := regexp.MustCompile(`^func ([A-Z]\w*)\(`)
	allowed := map[string]bool{
		"NewCluster": true, "OpenCluster": true, "OpenFleet": true, "OpenSource": true,
		"WriteStore": true, "Connectivity": true, "MST": true, "NewGraphBuilder": true,
		// The option constructors.
		"WithEdgeSource": true, "WithK": true, "WithSeed": true, "WithMaxRounds": true, "WithJobTimeout": true,
		"WithObserver": true, "WithPhaseMetrics": true, "WithTrials": true, "WithMaxLevel": true, "StrongOutput": true,
	}
	seen := make(map[string]bool)
	var sites []string
	nonTestLines(t, func(site, line string) {
		if m := exported.FindStringSubmatch(line); m != nil {
			seen[m[1]] = true
			if !allowed[m[1]] {
				sites = append(sites, site)
			}
		}
	}, ".")
	if len(sites) != 0 {
		t.Errorf("kmgraph exports a second front door (use a Cluster method, or the internal package):\n%s", strings.Join(sites, "\n"))
	}
	for name := range allowed {
		if !seen[name] {
			t.Errorf("%s not found: the guard's pattern no longer matches the code it guards", name)
		}
	}

	host := regexp.MustCompile(`"kmgraph/internal/core"|\bkmachine\.New(WithTransport)?\(`)
	sites = nil
	nonTestLines(t, func(site, line string) {
		if host.MatchString(line) {
			sites = append(sites, site)
		}
	}, "internal/verify", "internal/mincut")
	if len(sites) != 0 {
		t.Errorf("a reduction hosts itself again; it runs only over the runner its caller supplies:\n%s", strings.Join(sites, "\n"))
	}
}

// TestOneEngine fails if a Cluster grows a second engine again: a type
// under internal/dist with the engine's job methods, an interface in
// cluster.go for two implementations to hide behind, the ErrUnsupported
// a partial engine answers the families it cannot run with, or a host
// outside internal/core that runs core's one-shot handlers instead of
// resident commands (as the fleet workers' one-shot command did).
func TestOneEngine(t *testing.T) {
	method := regexp.MustCompile(`^func \([^)]*\) (Query|ApplyBatch|MinCut)\(`)
	iface := regexp.MustCompile(`^type \w+ interface\b`)
	handler := regexp.MustCompile(`\bcore\.(ConnectivityHandler|MSTHandler)\b`)
	var sites []string
	nonTestLines(t, func(site, line string) {
		if method.MatchString(line) {
			sites = append(sites, site)
		}
	}, "internal/dist")
	nonTestLines(t, func(site, line string) {
		if strings.HasPrefix(site, "cluster.go:") && iface.MatchString(line) {
			sites = append(sites, site)
		}
	}, ".")
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err == nil && strings.Contains(string(src), "ErrUnsupported") {
			sites = append(sites, path+": ErrUnsupported")
		}
		if m := handler.FindString(string(src)); m != "" && filepath.ToSlash(filepath.Dir(path)) != "internal/core" {
			sites = append(sites, path+": "+m)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 0 {
		t.Fatalf("a Cluster has a second engine again:\n%s", strings.Join(sites, "\n"))
	}
}

// nonTestLines calls fn with every line of the non-test Go files in dirs,
// and the line's "path:n: text" site for a failure message.
func nonTestLines(t *testing.T, fn func(site, line string), dirs ...string) {
	t.Helper()
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no Go files under %s (%v)", dir, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(src), "\n") {
				fn(fmt.Sprintf("%s:%d: %s", path, i+1, strings.TrimSpace(line)), line)
			}
		}
	}
}
