// Package devid implements the device-identifier schemes observed in the
// paper's adversary model (Section III-A): vendor-prefixed MAC addresses,
// sequential serial numbers, short digit-only IDs (the baby-monitor and
// camera incidents of references [14] and [18]), and full-entropy random
// IDs. It quantifies each scheme's search space and the time a remote
// attacker needs to enumerate it, backing the paper's claims that MAC-based
// IDs leave roughly a 3-byte search space and 6-7-digit IDs fall within an
// hour.
package devid

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"strings"
	"time"
)

// Scheme identifies a device-ID generation scheme.
type Scheme int

// Device-ID schemes.
const (
	// SchemeMAC uses the device MAC address: a fixed 3-byte vendor OUI
	// prefix followed by 3 assigned bytes.
	SchemeMAC Scheme = iota + 1
	// SchemeSequentialSerial uses a vendor prefix plus a sequentially
	// assigned decimal serial number.
	SchemeSequentialSerial
	// SchemeShortDigits uses a short all-digit identifier (6-7 digits in
	// the incidents the paper cites).
	SchemeShortDigits
	// SchemeRandom128 uses 128 bits of entropy rendered as hex; the
	// secure baseline.
	SchemeRandom128
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeMAC:
		return "mac"
	case SchemeSequentialSerial:
		return "sequential-serial"
	case SchemeShortDigits:
		return "short-digits"
	case SchemeRandom128:
		return "random-128"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Generator produces device IDs under a scheme. Generators are
// deterministic given their construction parameters, which keeps the
// emulation reproducible; real randomness is irrelevant to the attacks
// because the adversary model assumes the victim's ID leaks or is
// enumerable.
type Generator interface {
	// Scheme reports the generation scheme.
	Scheme() Scheme
	// Generate returns the ID with the given assignment index.
	Generate(index uint64) (string, error)
	// SearchSpace returns the number of candidate IDs an attacker must
	// consider (after discounting structure the attacker knows, such as
	// the vendor OUI prefix).
	SearchSpace() *big.Int
}

// errIndexOutOfRange is returned when an assignment index exceeds the
// scheme's capacity.
var errIndexOutOfRange = errors.New("devid: assignment index out of range")

// MACGenerator assigns MAC addresses under a fixed vendor OUI. The
// attacker-relevant search space is the 3 assigned bytes (2^24), as the OUI
// is public knowledge.
type MACGenerator struct {
	oui [3]byte
}

// NewMACGenerator returns a generator for the given vendor OUI.
func NewMACGenerator(oui [3]byte) *MACGenerator {
	return &MACGenerator{oui: oui}
}

// Scheme implements Generator.
func (g *MACGenerator) Scheme() Scheme { return SchemeMAC }

// Generate implements Generator. Index maps to the 3 assigned bytes.
func (g *MACGenerator) Generate(index uint64) (string, error) {
	if index >= 1<<24 {
		return "", fmt.Errorf("%w: %d >= 2^24", errIndexOutOfRange, index)
	}
	return fmt.Sprintf("%02X:%02X:%02X:%02X:%02X:%02X",
		g.oui[0], g.oui[1], g.oui[2],
		byte(index>>16), byte(index>>8), byte(index)), nil
}

// SearchSpace implements Generator: 2^24 candidates.
func (g *MACGenerator) SearchSpace() *big.Int {
	return big.NewInt(1 << 24)
}

// SerialGenerator assigns sequential decimal serials with a vendor prefix,
// e.g. "SP-000123". Sequential assignment means a single observed ID
// reveals the neighbourhood of every other shipped ID; the effective search
// space is the shipped volume, not the digit capacity.
type SerialGenerator struct {
	prefix  string
	digits  int
	shipped uint64
}

// NewSerialGenerator returns a sequential-serial generator. digits is the
// zero-padded width; shipped is the number of units the vendor has
// assigned, which bounds the attacker's effective search.
func NewSerialGenerator(prefix string, digits int, shipped uint64) (*SerialGenerator, error) {
	if digits < 1 || digits > 18 {
		return nil, fmt.Errorf("devid: serial digits %d out of range [1,18]", digits)
	}
	capacity := pow10(digits)
	if shipped > capacity {
		return nil, fmt.Errorf("devid: shipped %d exceeds %d-digit capacity", shipped, digits)
	}
	return &SerialGenerator{prefix: prefix, digits: digits, shipped: shipped}, nil
}

// Scheme implements Generator.
func (g *SerialGenerator) Scheme() Scheme { return SchemeSequentialSerial }

// Generate implements Generator.
func (g *SerialGenerator) Generate(index uint64) (string, error) {
	if index >= pow10(g.digits) {
		return "", fmt.Errorf("%w: %d exceeds %d digits", errIndexOutOfRange, index, g.digits)
	}
	return fmt.Sprintf("%s%0*d", g.prefix, g.digits, index), nil
}

// SearchSpace implements Generator: the shipped volume (sequential IDs are
// dense from zero).
func (g *SerialGenerator) SearchSpace() *big.Int {
	return new(big.Int).SetUint64(g.shipped)
}

// ShortDigitsGenerator assigns fixed-width digit IDs with no structure, as
// in the camera and baby-monitor incidents ([14], [18]).
type ShortDigitsGenerator struct {
	digits int
}

// NewShortDigitsGenerator returns a generator of all-digit IDs of the given
// width.
func NewShortDigitsGenerator(digits int) (*ShortDigitsGenerator, error) {
	if digits < 1 || digits > 18 {
		return nil, fmt.Errorf("devid: digits %d out of range [1,18]", digits)
	}
	return &ShortDigitsGenerator{digits: digits}, nil
}

// Scheme implements Generator.
func (g *ShortDigitsGenerator) Scheme() Scheme { return SchemeShortDigits }

// Generate implements Generator.
func (g *ShortDigitsGenerator) Generate(index uint64) (string, error) {
	if index >= pow10(g.digits) {
		return "", fmt.Errorf("%w: %d exceeds %d digits", errIndexOutOfRange, index, g.digits)
	}
	return fmt.Sprintf("%0*d", g.digits, index), nil
}

// SearchSpace implements Generator: 10^digits.
func (g *ShortDigitsGenerator) SearchSpace() *big.Int {
	return new(big.Int).SetUint64(pow10(g.digits))
}

// RandomGenerator assigns 128-bit IDs derived from a keyed permutation of
// the index, so IDs are unique and reproducible without shared state. The
// search space is 2^128, far beyond enumeration.
type RandomGenerator struct {
	seed uint64
}

// NewRandomGenerator returns a 128-bit ID generator seeded for
// reproducibility.
func NewRandomGenerator(seed uint64) *RandomGenerator {
	return &RandomGenerator{seed: seed}
}

// Scheme implements Generator.
func (g *RandomGenerator) Scheme() Scheme { return SchemeRandom128 }

// Generate implements Generator. It uses a SplitMix64-style mix of the
// seeded index for each 64-bit half.
func (g *RandomGenerator) Generate(index uint64) (string, error) {
	hi := mix64(g.seed ^ index ^ 0x9e3779b97f4a7c15)
	lo := mix64(g.seed + index*0xbf58476d1ce4e5b9 + 1)
	return fmt.Sprintf("%016x%016x", hi, lo), nil
}

// SearchSpace implements Generator: 2^128.
func (g *RandomGenerator) SearchSpace() *big.Int {
	return new(big.Int).Lsh(big.NewInt(1), 128)
}

// Enumerate streams candidate IDs from the generator into fn, stopping when
// fn returns false or the range [start, start+count) is exhausted. It
// returns the number of candidates produced. This is the brute-force
// primitive the attacker toolkit uses for scalable binding DoS.
func Enumerate(g Generator, start, count uint64, fn func(id string) bool) (uint64, error) {
	var produced uint64
	for i := uint64(0); i < count; i++ {
		id, err := g.Generate(start + i)
		if err != nil {
			if errors.Is(err, errIndexOutOfRange) {
				return produced, nil
			}
			return produced, err
		}
		produced++
		if !fn(id) {
			return produced, nil
		}
	}
	return produced, nil
}

// EnumerationEstimate quantifies a brute-force campaign against a scheme.
type EnumerationEstimate struct {
	// Scheme is the ID scheme under attack.
	Scheme Scheme
	// SearchSpace is the candidate count.
	SearchSpace *big.Int
	// EntropyBits is log2 of the search space.
	EntropyBits float64
	// RatePerSecond is the assumed forged-request throughput.
	RatePerSecond float64
	// FullSweep is the time to try every candidate (capped at the maximum
	// representable duration for astronomically large spaces).
	FullSweep time.Duration
	// Expected is the mean time to hit one specific victim (half the
	// sweep).
	Expected time.Duration
	// WithinHour reports whether the full sweep fits in one hour — the
	// paper's headline threshold for 6-7 digit IDs.
	WithinHour bool
}

// Estimate computes an EnumerationEstimate for a generator at the given
// request rate (forged binds or status messages per second).
func Estimate(g Generator, ratePerSecond float64) (EnumerationEstimate, error) {
	if ratePerSecond <= 0 {
		return EnumerationEstimate{}, fmt.Errorf("devid: rate %v must be positive", ratePerSecond)
	}
	space := g.SearchSpace()
	spaceF := new(big.Float).SetInt(space)
	bits := 0.0
	if space.Sign() > 0 {
		f, _ := spaceF.Float64()
		bits = math.Log2(f)
	}
	seconds := new(big.Float).Quo(spaceF, big.NewFloat(ratePerSecond))
	est := EnumerationEstimate{
		Scheme:        g.Scheme(),
		SearchSpace:   space,
		EntropyBits:   bits,
		RatePerSecond: ratePerSecond,
		FullSweep:     durationFromSeconds(seconds),
	}
	est.Expected = est.FullSweep / 2
	hour := new(big.Float).SetFloat64(3600)
	est.WithinHour = seconds.Cmp(hour) <= 0
	return est, nil
}

// HumanDuration renders d compactly, collapsing to "centuries" beyond
// representable scales.
func HumanDuration(d time.Duration) string {
	if d == math.MaxInt64 {
		return ">centuries"
	}
	switch {
	case d < time.Minute:
		return d.Round(time.Millisecond).String()
	case d < time.Hour:
		return d.Round(time.Second).String()
	case d < 48*time.Hour:
		return fmt.Sprintf("%.1fh", d.Hours())
	default:
		return fmt.Sprintf("%.1fd", d.Hours()/24)
	}
}

// VendorOUI parses a "AA:BB:CC" OUI string.
func VendorOUI(s string) ([3]byte, error) {
	var oui [3]byte
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return oui, fmt.Errorf("devid: OUI %q must have 3 octets", s)
	}
	for i, p := range parts {
		var b byte
		if _, err := fmt.Sscanf(p, "%02X", &b); err != nil {
			return oui, fmt.Errorf("devid: OUI octet %q: %w", p, err)
		}
		oui[i] = b
	}
	return oui, nil
}

func durationFromSeconds(seconds *big.Float) time.Duration {
	nanos := new(big.Float).Mul(seconds, big.NewFloat(1e9))
	maxNanos := new(big.Float).SetInt64(math.MaxInt64)
	if nanos.Cmp(maxNanos) >= 0 {
		return time.Duration(math.MaxInt64)
	}
	n, _ := nanos.Int64()
	return time.Duration(n)
}

func pow10(digits int) uint64 {
	n := uint64(1)
	for i := 0; i < digits; i++ {
		n *= 10
	}
	return n
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
