package bog_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"rtltimer/internal/bog"
	"rtltimer/internal/designs"
	"rtltimer/internal/elab"
	"rtltimer/internal/verilog"
)

var updateDigests = flag.Bool("update", false, "rewrite "+builtGraphsFile+" from the current bit-blaster")

const builtGraphsFile = "testdata/built_graphs.txt"

// TestBuiltGraphDigests pins the bytes of every built graph: the hex
// SHA-256 of MarshalGraph(Build(d, v)) for each of the 21 suite designs
// and 4 variants must equal its line in testdata/built_graphs.txt
// ("design variant digest"). Disk-cache entry names hash the source and
// the variant, not the bit-blaster, so a change that moves any of these
// bytes must bump entryVersion in internal/engine/diskcache.go; only then
// regenerate the file with
//
//	go test ./internal/bog -run TestBuiltGraphDigests -update
func TestBuiltGraphDigests(t *testing.T) {
	var got []string
	for _, spec := range designs.All() {
		parsed, err := verilog.Parse(designs.Generate(spec))
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		d, err := elab.Elaborate(parsed)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		for _, v := range bog.Variants() {
			g, err := bog.Build(d, v)
			if err != nil {
				t.Fatalf("%s %v: %v", spec.Name, v, err)
			}
			sum := sha256.Sum256(bog.MarshalGraph(g))
			got = append(got, fmt.Sprintf("%s %v %s", spec.Name, v, hex.EncodeToString(sum[:])))
		}
	}
	if *updateDigests {
		if err := os.WriteFile(builtGraphsFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(builtGraphsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d built graphs, %s records %d", len(got), builtGraphsFile, len(want))
	}
	for i := range got {
		g, w := strings.Fields(got[i]), strings.Fields(want[i])
		if len(w) != 3 || g[0] != w[0] || g[1] != w[1] {
			t.Fatalf("line %d of %s is %q, want a digest of %s %s", i+1, builtGraphsFile, want[i], g[0], g[1])
		}
		if g[2] != w[2] {
			t.Errorf("built graph %s %s moved: sha256 %s, recorded %s; bump entryVersion in internal/engine/diskcache.go before regenerating %s",
				g[0], g[1], g[2], w[2], builtGraphsFile)
		}
	}
}
