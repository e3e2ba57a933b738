package devid

import (
	"errors"
	"math/big"
	"testing"
	"testing/quick"
	"time"
)

func TestMACGenerator(t *testing.T) {
	g := NewMACGenerator([3]byte{0xB4, 0x75, 0x0E}) // a Belkin OUI
	id, err := g.Generate(0x0000FF)
	if err != nil {
		t.Fatal(err)
	}
	if id != "B4:75:0E:00:00:FF" {
		t.Errorf("Generate = %q", id)
	}
	if _, err := g.Generate(1 << 24); !errors.Is(err, errIndexOutOfRange) {
		t.Errorf("out-of-range error = %v", err)
	}
	if g.SearchSpace().Cmp(big.NewInt(1<<24)) != 0 {
		t.Errorf("SearchSpace = %v, want 2^24", g.SearchSpace())
	}
}

// TestMACSearchSpaceClaim verifies the paper's Section I claim: with the
// vendor bytes excluded, the MAC search space is within 3 bytes.
func TestMACSearchSpaceClaim(t *testing.T) {
	g := NewMACGenerator([3]byte{0x50, 0xC7, 0xBF}) // a TP-Link OUI
	threeBytes := big.NewInt(1 << 24)
	if g.SearchSpace().Cmp(threeBytes) > 0 {
		t.Errorf("MAC search space %v exceeds 3 bytes", g.SearchSpace())
	}
}

func TestSerialGenerator(t *testing.T) {
	g, err := NewSerialGenerator("SP-", 6, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	id, err := g.Generate(123)
	if err != nil {
		t.Fatal(err)
	}
	if id != "SP-000123" {
		t.Errorf("Generate = %q", id)
	}
	if g.SearchSpace().Cmp(big.NewInt(150_000)) != 0 {
		t.Errorf("SearchSpace = %v, want shipped volume", g.SearchSpace())
	}
	if _, err := g.Generate(1_000_000); !errors.Is(err, errIndexOutOfRange) {
		t.Errorf("out-of-range error = %v", err)
	}
}

func TestSerialGeneratorValidation(t *testing.T) {
	if _, err := NewSerialGenerator("X", 0, 0); err == nil {
		t.Error("digits=0 accepted")
	}
	if _, err := NewSerialGenerator("X", 19, 0); err == nil {
		t.Error("digits=19 accepted")
	}
	if _, err := NewSerialGenerator("X", 3, 1001); err == nil {
		t.Error("shipped beyond capacity accepted")
	}
}

func TestShortDigitsGenerator(t *testing.T) {
	g, err := NewShortDigitsGenerator(7)
	if err != nil {
		t.Fatal(err)
	}
	id, err := g.Generate(42)
	if err != nil {
		t.Fatal(err)
	}
	if id != "0000042" {
		t.Errorf("Generate = %q", id)
	}
	if g.SearchSpace().Cmp(big.NewInt(10_000_000)) != 0 {
		t.Errorf("SearchSpace = %v, want 10^7", g.SearchSpace())
	}
	if _, err := NewShortDigitsGenerator(0); err == nil {
		t.Error("digits=0 accepted")
	}
}

func TestRandomGenerator(t *testing.T) {
	g := NewRandomGenerator(1)
	a, err := g.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Generate(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 32 || len(b) != 32 {
		t.Errorf("ID lengths = %d, %d, want 32", len(a), len(b))
	}
	if a == b {
		t.Error("distinct indexes generated identical IDs")
	}
	again, err := g.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	if again != a {
		t.Error("generation is not deterministic")
	}
	want := new(big.Int).Lsh(big.NewInt(1), 128)
	if g.SearchSpace().Cmp(want) != 0 {
		t.Errorf("SearchSpace = %v, want 2^128", g.SearchSpace())
	}
}

// TestGeneratorsAreInjective is a property test: distinct indexes always
// produce distinct IDs under every scheme.
func TestGeneratorsAreInjective(t *testing.T) {
	serial, err := NewSerialGenerator("S", 9, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	short, err := NewShortDigitsGenerator(9)
	if err != nil {
		t.Fatal(err)
	}
	gens := []Generator{
		NewMACGenerator([3]byte{1, 2, 3}),
		serial,
		short,
		NewRandomGenerator(99),
	}
	for _, g := range gens {
		g := g
		f := func(i, j uint32) bool {
			a, b := uint64(i)%(1<<24), uint64(j)%(1<<24)
			ida, err1 := g.Generate(a)
			idb, err2 := g.Generate(b)
			if err1 != nil || err2 != nil {
				return false
			}
			return (a == b) == (ida == idb)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%v: %v", g.Scheme(), err)
		}
	}
}

func TestEnumerate(t *testing.T) {
	g, err := NewShortDigitsGenerator(3)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	n, err := Enumerate(g, 5, 4, func(id string) bool {
		got = append(got, id)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("produced %d, want 4", n)
	}
	want := []string{"005", "006", "007", "008"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("candidate %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	g, err := NewShortDigitsGenerator(3)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Enumerate(g, 0, 100, func(id string) bool { return id != "002" })
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("produced %d before stop, want 3", n)
	}
}

func TestEnumerateExhaustsRange(t *testing.T) {
	g, err := NewShortDigitsGenerator(2)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Enumerate(g, 90, 1000, func(string) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("produced %d, want 10 (90..99)", n)
	}
}

// TestSearchSpaceClaims reproduces the paper's enumeration-time claims at a
// modest 3000 forged requests/second:
//   - 6- and 7-digit IDs are exhaustible within an hour (Section I).
//   - 3-byte MAC spaces take hours, not years (feasible targeted attack).
//   - 128-bit random IDs are out of reach.
func TestSearchSpaceClaims(t *testing.T) {
	const rate = 3000

	short6, err := NewShortDigitsGenerator(6)
	if err != nil {
		t.Fatal(err)
	}
	short7, err := NewShortDigitsGenerator(7)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []Generator{short6, short7} {
		est, err := Estimate(g, rate)
		if err != nil {
			t.Fatal(err)
		}
		if !est.WithinHour {
			t.Errorf("%v: full sweep %v not within an hour", g.Scheme(), est.FullSweep)
		}
	}

	mac := NewMACGenerator([3]byte{0, 1, 2})
	est, err := Estimate(mac, rate)
	if err != nil {
		t.Fatal(err)
	}
	if est.WithinHour {
		t.Errorf("MAC sweep %v unexpectedly within an hour at %v req/s", est.FullSweep, float64(rate))
	}
	if est.FullSweep > 7*24*time.Hour {
		t.Errorf("MAC sweep %v should be feasible (days, not weeks)", est.FullSweep)
	}

	random := NewRandomGenerator(1)
	est, err = Estimate(random, rate)
	if err != nil {
		t.Fatal(err)
	}
	if est.FullSweep != time.Duration(1<<63-1) {
		t.Errorf("random-128 sweep %v, want saturated max", est.FullSweep)
	}
	if est.EntropyBits < 127 || est.EntropyBits > 129 {
		t.Errorf("random-128 entropy = %v bits", est.EntropyBits)
	}
}

func TestEstimateRejectsBadRate(t *testing.T) {
	g := NewMACGenerator([3]byte{0, 0, 0})
	if _, err := Estimate(g, 0); err == nil {
		t.Error("rate 0 accepted")
	}
	if _, err := Estimate(g, -1); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestVendorOUI(t *testing.T) {
	oui, err := VendorOUI("B4:75:0E")
	if err != nil {
		t.Fatal(err)
	}
	if oui != [3]byte{0xB4, 0x75, 0x0E} {
		t.Errorf("VendorOUI = %v", oui)
	}
	for _, bad := range []string{"", "B4:75", "B4:75:0E:11", "ZZ:00:00"} {
		if _, err := VendorOUI(bad); err == nil {
			t.Errorf("VendorOUI(%q) accepted", bad)
		}
	}
}

func TestHumanDuration(t *testing.T) {
	tests := []struct {
		d    time.Duration
		want string
	}{
		{500 * time.Millisecond, "500ms"},
		{90 * time.Second, "1m30s"},
		{3 * time.Hour, "3.0h"},
		{72 * time.Hour, "3.0d"},
		{time.Duration(1<<63 - 1), ">centuries"},
	}
	for _, tt := range tests {
		if got := HumanDuration(tt.d); got != tt.want {
			t.Errorf("HumanDuration(%v) = %q, want %q", tt.d, got, tt.want)
		}
	}
}

func TestSchemeStrings(t *testing.T) {
	want := map[Scheme]string{
		SchemeMAC:              "mac",
		SchemeSequentialSerial: "sequential-serial",
		SchemeShortDigits:      "short-digits",
		SchemeRandom128:        "random-128",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), name)
		}
	}
}
