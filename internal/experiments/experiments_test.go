package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"strings"
	"testing"
)

func TestRegistryIsConsistent(t *testing.T) {
	ids := IDs()
	if len(ids) != len(registry) {
		t.Fatalf("IDs() returned %d, registry has %d", len(ids), len(registry))
	}
	seen := make(map[string]bool)
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate experiment id %q", id)
		}
		seen[id] = true
		title, err := Title(id)
		if err != nil || title == "" {
			t.Errorf("Title(%q) = %q, %v", id, title, err)
		}
	}
	if _, err := Title("nope"); err == nil {
		t.Error("Title(nope) succeeded")
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope"); err == nil {
		t.Error("Run(nope) succeeded")
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{
		ID:    "x",
		Title: "t",
		Checks: []Check{
			{Name: "a", Pass: true},
			{Name: "b", Pass: false},
		},
	}
	if r.Passed() {
		t.Error("Passed() with a failing check")
	}
	failed := r.FailedChecks()
	if len(failed) != 1 || failed[0] != "b" {
		t.Errorf("FailedChecks = %v", failed)
	}
	out := r.Render()
	for _, want := range []string{"=== x: t ===", "PASS", "FAIL"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q", want)
		}
	}
}

func TestCheckBuilders(t *testing.T) {
	if c := checkNear("n", "p", 10, 10, 0.5); !c.Pass {
		t.Error("checkNear exact failed")
	}
	if c := checkNear("n", "p", 11, 10, 0.5); c.Pass {
		t.Error("checkNear out of band passed")
	}
	if c := checkBetween("n", "p", 5, 0, 10); !c.Pass {
		t.Error("checkBetween in band failed")
	}
	if c := checkBetween("n", "p", 11, 0, 10); c.Pass {
		t.Error("checkBetween out of band passed")
	}
	if c := checkTrue("n", "p", "m", true); !c.Pass || c.Measured != "m" {
		t.Error("checkTrue failed")
	}
}

// experimentDigests pins every experiment at full precision (see
// experimentDigest). The shape checks and the rendered text see rounded
// strings only, so a change that moves a series by one ulp passes them
// and fails here. An intended change records the digest the failure
// prints. The digests hold on amd64, where the compiler never fuses a
// multiply and an add; on arm64, ppc64le, s390x and riscv64 it may,
// which moves last bits, so there only the shape checks gate.
var experimentDigests = map[string]string{
	"verify":             "dab0005a57499a5656237f3cbf909ca13ccfc45158274749a0e8bf20686b5234",
	"fig1":               "fecc2b695cc06c60e5443e09ff44391340b06973b2a59415d2f00c9d44b7e89b",
	"fig2":               "6c061a5857c7b17625c35c23722644f41c25e28c1b46149df19c072c21506b74",
	"fig3":               "f165ed4cc999a6fb279db1b05b1275e5200e4752a78033126b6e2b095338d20a",
	"fig4":               "40e243b8b0645b8c0c80058ef7d25861966218391a05c55b94b195c4b6eb396f",
	"fig5":               "b13db6f92c5a66c77353ab6bbb870f7b6ca4b51ad23158c4a6162b31dfc390e9",
	"fig6":               "fda9bded5e8e62510befb086ee8fcf77e9b3ec09168b925fbc764ee1aca4b379",
	"fig7":               "8e7ff4e5ed881208d9efdb5ddf0305136322f76cf6d5bcf69ce8406ea62f6cf6",
	"fig8":               "c98ffc45ad27d3cc7fccf66e29f3ca3e746bf5b97f71ea4862f4f83c086fc593",
	"fig9":               "a4042ae4de207819a63fe9597b233d32bc6f7ab5d878fae27b3f92c07175050e",
	"fig10":              "0ed0a42ec23bc5757932723f32c837092f11344b8509021a5ebba19722c83b40",
	"table1":             "46aef75bd838a4b255169716000102bc0e9028781c640dcb867cdbdc0c48ecb9",
	"table2":             "a78b440213eb5f4cd3bb60b9326f4584c3db5882483269784cdb8f26e0f6866b",
	"ablation-impl":      "41378b56f4087f1d50d668cffd55b0775c1787ce3aa9a53ec3b4bfe556c52067",
	"ablation-governors": "ffd54c2ac000c0059cb6eabc57f2dc5496b54447e6169b9517b48da8e0057d80",
	"energy":             "473bff697731bb89f8336c797fed79315ecd7cb7eb4ca493e916a4588f92d030",
	"ext-multicore":      "686f8b89c441a010d4b99bfb794516bf8a341a916b91056bb359dbdde2bf4d9f",
	"ext-pas-credit2":    "61e427359884ba7edd33686022275296037b3730522fb3b06d4ef57a820ab758",
	"ext-consolidation":  "aea99e32c9aae5e89ec64f03e88e48f8ef1664b830829ab0e30b528656cffefb",
}

// experimentDigest is the SHA-256 of each series' name, length and the
// exact bits of every (T, V) point, followed by the rendered result.
func experimentDigest(res *Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, s := range res.Series {
		h.Write([]byte(s.Name))
		put(uint64(len(s.T)))
		for i := range s.T {
			put(math.Float64bits(s.T[i]))
			put(math.Float64bits(s.V[i]))
		}
	}
	h.Write([]byte(res.Render()))
	return hex.EncodeToString(h.Sum(nil))
}

// TestAllExperimentsPass runs every registered experiment end to end and
// requires every shape check to pass, and every result to match its
// full-precision digest: the full paper reproduction as a single test
// gate. Experiments run in parallel; the whole gate takes a few seconds.
func TestAllExperimentsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment runs in -short mode")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			res, err := Run(id)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Passed() {
				t.Errorf("%s failed checks: %v", id, res.FailedChecks())
			}
			if len(res.Checks) == 0 {
				t.Errorf("%s carries no shape checks", id)
			}
			if res.Render() == "" {
				t.Errorf("%s renders empty", id)
			}
			if got, want := experimentDigest(res), experimentDigests[id]; runtime.GOARCH == "amd64" && got != want {
				t.Errorf("%s digest moved: got %q, want %q (record the new digest if the change is intended)", id, got, want)
			}
		})
	}
}

func TestTable1ShapeChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs in -short mode")
	}
	res, err := Run("table1")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Errorf("table1 failed checks: %v", res.FailedChecks())
	}
	if len(res.Tables) != 1 || len(res.Tables[0].Rows) != 5 {
		t.Error("table1 did not produce 5 processor rows")
	}
}

func TestTraceConfigurations(t *testing.T) {
	if testing.Short() {
		t.Skip("trace runs in -short mode")
	}
	rec, err := Trace("credit2", "ondemand", "exact", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Names()) == 0 {
		t.Error("trace recorded nothing")
	}
	for _, bad := range [][3]string{
		{"nope", "paper", "exact"},
		{"credit", "nope", "exact"},
		{"credit", "paper", "nope"},
		{"pas", "paper", "exact"}, // pas requires -gov none
	} {
		if _, err := Trace(bad[0], bad[1], bad[2], 1); err == nil {
			t.Errorf("Trace(%v) succeeded", bad)
		}
	}
}

func TestScenarioBuilderValidation(t *testing.T) {
	if _, err := newScenario("cfs", nil, loadExact, 1); err == nil {
		t.Error("unknown scheduler accepted")
	}
	if _, err := scenarioGovernor("nope"); err == nil {
		t.Error("unknown governor accepted")
	}
	g, err := scenarioGovernor("paper")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newScenario("pas", g, loadExact, 1); err == nil {
		t.Error("PAS with a governor accepted")
	}
}
