package trace

import (
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// scanFloat decodes the JSON number literal at b[i] to the float64
// strconv.ParseFloat gives it — the value encoding/json stores — and returns
// the index past it. ok is false when there is no literal or ParseFloat
// refuses it (out of range).
//
// One pass walks the number grammar, collecting up to maxMantDigits
// significant digits into a uint64 mantissa and a decimal exponent, exactly
// as strconv's readFloat does. The value is then decided by the first of
// three paths that applies, the first two strconv's own fast paths:
//
//  1. atof64exact (Clinger): mantissa and power of ten both exact float64s,
//     one correctly rounded multiply or divide;
//  2. eiselLemire64 over the generated power table: proven correct whenever
//     it answers;
//  3. strconv.ParseFloat on the literal: a truncated mantissa, an exponent
//     outside the table, or an Eisel–Lemire halfway case.
//
// The accepted set and every bit of every value are therefore ParseFloat's;
// FuzzScanFloat holds the scanner to that.
func scanFloat(b []byte, i int) (f float64, end int, ok bool) {
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	if i == len(b) {
		return 0, start, false
	}
	var man uint64
	nd, exp10 := 0, 0 // digits in man from its first nonzero one; decimal exponent
	trunc := false    // a nonzero digit fell past maxMantDigits
	switch c := b[i]; {
	case c == '0':
		i++
	case '1' <= c && c <= '9':
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if nd < maxMantDigits {
				man = man*10 + uint64(b[i]-'0')
				nd++
			} else {
				exp10++
				trunc = trunc || b[i] != '0'
			}
		}
	default:
		return 0, start, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if nd < maxMantDigits {
				man = man*10 + uint64(b[i]-'0')
				exp10--
				if man != 0 {
					nd++
				}
			} else {
				trunc = trunc || b[i] != '0'
			}
		}
		if i == frac {
			return 0, start, false
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		digits := i
		e := 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e < 10000 { // readFloat's cap: far past any finite float either way
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == digits {
			return 0, start, false
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	if !trunc {
		if f, ok := atof64exact(man, exp10, neg); ok {
			return f, i, true
		}
		if f, ok := eiselLemire64(man, exp10, neg); ok {
			return f, i, true
		}
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	return f, i, err == nil
}

// maxMantDigits is how many significant digits fit a uint64 mantissa
// (10^19 < 2^64), strconv's limit.
const maxMantDigits = 19

// float64pow10 holds the powers of ten a float64 represents exactly.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	1e20, 1e21, 1e22,
}

// atof64exact is strconv's atof64exact: when mantissa·10^exp is computable
// with one exact operand pair, float64 arithmetic rounds it correctly.
func atof64exact(mantissa uint64, exp int, neg bool) (f float64, ok bool) {
	if mantissa>>52 != 0 {
		return
	}
	f = float64(mantissa)
	if neg {
		f = -f
	}
	switch {
	case exp == 0:
		return f, true
	// Exact integers are <= 10^15; exact powers of ten are <= 10^22.
	case exp > 0 && exp <= 15+22:
		// A big exponent on few digits moves some zeros into the integer.
		if exp > 22 {
			f *= float64pow10[exp-22]
			exp = 22
		}
		if f > 1e15 || f < -1e15 {
			return // the exponent was really too large
		}
		return f * float64pow10[exp], true
	case exp < 0 && exp >= -22:
		return f / float64pow10[-exp], true
	}
	return
}

// The power table's range. Go's covers 10^-348 … 10^347; ±64 covers the
// decimal exponents of job-line values by a wide margin (a 17-digit release
// near 1e6 has exp10 = -10) and hands the rest to ParseFloat.
const (
	powMinExp10 = -64
	powMaxExp10 = 64
)

// pow10Rows[e-powMinExp10] is {lo, hi} of 10^e's 128-bit mantissa: its
// leading 128 bits, normalized so bit 127 is set and truncated, the
// layout of strconv's detailedPowersOfTen. The rows are generated exactly
// with math/big at init (TestPow10RowsMatchStrconv pins two against the
// constants strconv quotes) rather than pasted as a table nobody can review.
var pow10Rows [powMaxExp10 - powMinExp10 + 1][2]uint64

func init() {
	ten := big.NewInt(10)
	mask := new(big.Int).SetUint64(math.MaxUint64)
	v, p, lo := new(big.Int), new(big.Int), new(big.Int)
	for e := powMinExp10; e <= powMaxExp10; e++ {
		if e >= 0 {
			v.Exp(ten, big.NewInt(int64(e)), nil)
			if n := v.BitLen(); n > 128 {
				v.Rsh(v, uint(n-128))
			} else {
				v.Lsh(v, uint(128-n))
			}
		} else {
			// floor(2^k / 10^-e) with k chosen so the quotient has 128 bits:
			// 10^-e is never a power of two, so it lies in (2^127, 2^128).
			p.Exp(ten, big.NewInt(int64(-e)), nil)
			v.Lsh(big.NewInt(1), uint(127+p.BitLen()))
			v.Quo(v, p)
		}
		pow10Rows[e-powMinExp10] = [2]uint64{lo.And(v, mask).Uint64(), p.Rsh(v, 64).Uint64()}
	}
}

// eiselLemire64 is strconv's eiselLemire64 over pow10Rows: it returns
// mantissa·10^exp10 correctly rounded, or ok false when the exponent is out
// of the table's range, the result is not a normal finite float64, or the
// 128-bit product cannot tell a halfway case apart. See
// https://nigeltao.github.io/blog/2020/eisel-lemire.html for the sections
// the comments name.
func eiselLemire64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	// Exp10 Range.
	if man == 0 {
		if neg {
			f = math.Float64frombits(0x8000000000000000) // Negative zero.
		}
		return f, true
	}
	if exp10 < powMinExp10 || powMaxExp10 < exp10 {
		return 0, false
	}
	pow := &pow10Rows[exp10-powMinExp10]

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, pow[1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2 += 1
	}
	// retExp2 is a uint64: zero or underflow is subnormal space, 0x7FF or
	// above is Inf/NaN space; both go to the slow path.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}
