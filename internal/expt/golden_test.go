package expt

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/des"
)

const goldenPath = "testdata/decisions.golden"

// outcomes memoises one full run (all three variants) per scenario so
// the decision golden and the behavioural tests below share the
// simulations instead of repeating them.
var outcomes struct {
	sync.Mutex
	byID map[string]*Outcome
}

func outcome(t *testing.T, id string) *Outcome {
	t.Helper()
	outcomes.Lock()
	defer outcomes.Unlock()
	if o, ok := outcomes.byID[id]; ok {
		return o
	}
	sc, ok := ByID(id)
	if !ok {
		t.Fatalf("no scenario %q", id)
	}
	o, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if outcomes.byID == nil {
		outcomes.byID = make(map[string]*Outcome)
	}
	outcomes.byID[id] = o
	return o
}

// goldenLine is one line of the decision golden, split into the part
// compared byte for byte and the WAE, compared with a tolerance.
type goldenLine struct {
	exact string
	wae   float64
	hasW  bool
}

// decisionLines renders every scenario × variant: a header per run
// (runtime and learned bandwidth as exact binary floats, final node
// count) and one line per coordinator period with its time, census,
// action, reason and effects, all exact. Each period's WAE rides at the
// end of its line and is compared separately (see TestDecisionGolden).
func decisionLines(t *testing.T) []goldenLine {
	var out []goldenLine
	for _, sc := range All() {
		o := outcome(t, sc.ID)
		for _, v := range []Variant{NoAdapt, Adaptive, MonitorOnly} {
			res := o.Results[v]
			out = append(out, goldenLine{exact: fmt.Sprintf("run %s %s runtime=%b final=%d minbw=%b",
				sc.ID, v, res.Runtime, res.FinalNodes, res.MinBandwidth)})
			for _, p := range res.Periods {
				out = append(out, goldenLine{
					exact: periodLine(p),
					wae:   p.WAE,
					hasW:  true,
				})
			}
		}
	}
	return out
}

func periodLine(p des.PeriodRecord) string {
	return fmt.Sprintf("  t=%b nodes=%d stats=%d action=%q detail=%q added=%d removed=%d",
		p.Time, p.Nodes, p.Stats, p.Action, p.Detail, p.Added, p.Removed)
}

func (g goldenLine) String() string {
	if !g.hasW {
		return g.exact
	}
	return g.exact + " wae=" + strconv.FormatFloat(g.wae, 'x', -1, 64)
}

// TestDecisionGolden pins the coordinator's full decision sequence for
// the whole evaluation suite: every period's time, census, action,
// reason string and effects, and every run's runtime, final node count
// and learned bandwidth must match testdata/decisions.golden exactly.
// Only the recorded WAE is compared within 1e-12 relative: it is a sum
// over per-node (or per-cluster) partials, and reassociating that sum
// may move its last bits without moving any decision. Only an intended
// behaviour change regenerates the file: delete it and run the test,
// which writes the current sequence and fails so the new file gets
// reviewed before it is committed.
func TestDecisionGolden(t *testing.T) {
	got := decisionLines(t)
	f, err := os.Open(goldenPath)
	if errors.Is(err, fs.ErrNotExist) {
		var b strings.Builder
		for _, g := range got {
			b.WriteString(g.String())
			b.WriteByte('\n')
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote a new %s; review it and run the test again", goldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []goldenLine
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		g := goldenLine{exact: line}
		if i := strings.LastIndex(line, " wae="); i >= 0 && strings.HasPrefix(line, "  t=") {
			w, err := strconv.ParseFloat(line[i+len(" wae="):], 64)
			if err != nil {
				t.Fatalf("golden line %d: %v", len(want)+1, err)
			}
			g = goldenLine{exact: line[:i], wae: w, hasW: true}
		}
		want = append(want, g)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("golden has %d lines, run produced %d", len(want), len(got))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.exact != w.exact || g.hasW != w.hasW {
			t.Fatalf("line %d diverges:\n  want %s\n  got  %s", i+1, w.exact, g.exact)
		}
		if w.hasW && !relClose(g.wae, w.wae, 1e-12) {
			t.Fatalf("line %d: WAE %v, golden %v (beyond 1e-12 relative)\n  %s", i+1, g.wae, w.wae, w.exact)
		}
	}
}

func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}
