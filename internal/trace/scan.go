package trace

import (
	"strconv"

	"repro/internal/sched"
)

// The job-line scanner: NDJSONReader.Next's fast path for the canonical
// job-line grammar, the only shape the repo's writers (and any sane
// producer) emit:
//
//	line   = ws "{" ws member { ws "," ws member } ws "}" ws
//	member = key ws ":" ws number          key ∈ "id" "release" "weight" "deadline"
//	       | `"proc"` ws ":" ws "[" ws [ number { ws "," ws number } ] ws "]"
//	number = JSON number; for "id" an integer literal of at most 18 digits
//	         (maxIDDigits)
//	ws     = { " " | "\t" | "\r" | "\n" }
//
// with every key spelled exactly (lowercase, no escapes), at most once, in
// any order, and a proc row of at most `machines` entries. Floats go through
// scanFloat (atof.go), which decodes each literal in one pass to the bits
// strconv.ParseFloat — the call encoding/json makes — gives it, so the
// decoded values are bit-identical to the json path's.
//
// The scanner never reports an error: a line outside the grammar, malformed
// or merely unusual (escaped or case-folded keys, null, a repeated key, an
// over-long integer, a float ParseFloat refuses, trailing bytes, an
// over-long row), is declined and Next hands it unchanged to strictUnmarshal.
// The set of accepted lines, their values and every error text therefore
// stay encoding/json's by construction; FuzzScanVsJSON holds the scanner to
// "decline or agree".

// Proc rows of scanned jobs are carved out of slabs of slabRows rows (fewer
// when rows are wide: a slab never exceeds maxSlabFloats, and a header
// declaring more machines than that is served by the json path alone, so a
// hostile header cannot size an allocation).
const (
	slabRows      = 256
	maxSlabFloats = 1 << 16
)

// The canonical keys, closing quote included so a prefix match is exact.
const (
	keyID = iota
	keyRelease
	keyWeight
	keyDeadline
	keyProc
)

var jobKeys = [...]string{keyID: `"id"`, keyRelease: `"release"`, keyWeight: `"weight"`, keyDeadline: `"deadline"`, keyProc: `"proc"`}

// scanJob decodes one canonical job line. ok false declines the line (j is
// then meaningless); on ok, j holds exactly what strictUnmarshal into a
// jobJSON would produce — absent fields zero, an absent deadline
// sched.NoDeadline — with Proc an uncommitted row of the reader's slab: the
// caller commits it (advances r.slab by the row) only once the job is
// returned, so a refused line never pins or leaks one.
func (r *NDJSONReader) scanJob(b []byte) (j sched.Job, ok bool) {
	j.Deadline = sched.NoDeadline
	i := skipWS(b, 0)
	if i == len(b) || b[i] != '{' {
		return j, false
	}
	i = skipWS(b, i+1)
	var seen [len(jobKeys)]bool
	for {
		k := matchKey(b[i:])
		if k < 0 || seen[k] {
			return j, false
		}
		seen[k] = true
		i = skipWS(b, i+len(jobKeys[k]))
		if i == len(b) || b[i] != ':' {
			return j, false
		}
		i = skipWS(b, i+1)
		switch k {
		case keyProc:
			if i, ok = r.scanRow(b, i, &j); !ok {
				return j, false
			}
		case keyID:
			end, integer := scanNumber(b, i)
			if !integer {
				return j, false
			}
			if j.ID, ok = parseIDLiteral(b[i:end]); !ok {
				return j, false
			}
			i = end
		default:
			f, end, ok := scanFloat(b, i)
			if !ok {
				return j, false
			}
			switch k {
			case keyRelease:
				j.Release = f
			case keyWeight:
				j.Weight = f
			case keyDeadline:
				j.Deadline = f
			}
			i = end
		}
		i = skipWS(b, i)
		if i == len(b) {
			return j, false
		}
		switch b[i] {
		case ',':
			i = skipWS(b, i+1)
		case '}':
			return j, skipWS(b, i+1) == len(b)
		default:
			return j, false
		}
	}
}

// scanRow decodes the proc array at b[i] into an uncommitted slab row and
// returns the index past its closing bracket.
func (r *NDJSONReader) scanRow(b []byte, i int, j *sched.Job) (int, bool) {
	if i == len(b) || b[i] != '[' || r.machines > maxSlabFloats {
		return i, false
	}
	if cap(r.slab)-len(r.slab) < r.machines {
		r.slab = make([]float64, 0, min(slabRows, maxSlabFloats/r.machines)*r.machines)
	}
	// The capped three-index slice keeps an append on a returned job's Proc
	// from writing into the next job's row.
	n := len(r.slab)
	row := r.slab[n : n : n+r.machines]
	i = skipWS(b, i+1)
	if i < len(b) && b[i] == ']' {
		j.Proc = row
		return i + 1, true
	}
	for {
		f, end, ok := scanFloat(b, i)
		if !ok || len(row) == cap(row) {
			return i, false
		}
		row = append(row, f)
		i = skipWS(b, end)
		if i == len(b) {
			return i, false
		}
		switch b[i] {
		case ',':
			i = skipWS(b, i+1)
		case ']':
			j.Proc = row
			return i + 1, true
		default:
			return i, false
		}
	}
}

// skipWS returns the index of the first non-whitespace byte at or after i.
func skipWS(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// matchKey returns the index of the canonical key b starts with, or -1.
func matchKey(b []byte) int {
	if len(b) < 2 {
		return -1
	}
	var k int
	switch b[1] {
	case 'i':
		k = keyID
	case 'r':
		k = keyRelease
	case 'w':
		k = keyWeight
	case 'd':
		k = keyDeadline
	case 'p':
		k = keyProc
	default:
		return -1
	}
	if name := jobKeys[k]; len(b) >= len(name) && string(b[:len(name)]) == name {
		return k
	}
	return -1
}

// scanNumber returns the end of the JSON number literal starting at b[i]
// (end == i when there is none) and whether it is an integer literal — no
// fraction, no exponent. What follows the literal is the caller's to check.
func scanNumber(b []byte, i int) (end int, integer bool) {
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i == len(b):
		return start, false
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return start, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer = false
		frac := i + 1
		if i = skipDigits(b, frac); i == frac {
			return start, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		exp := i
		if i = skipDigits(b, exp); i == exp {
			return start, false
		}
	}
	return i, integer
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// maxIDDigits is the longest integer literal that cannot overflow an int:
// 18 digits on 64-bit platforms, 9 on 32-bit ones.
const maxIDDigits = 9 * (strconv.IntSize / 32)

// parseIDLiteral converts an integer literal scanNumber accepted, declining one
// long enough that overflow is possible.
func parseIDLiteral(lit []byte) (int, bool) {
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	if len(lit) > maxIDDigits {
		return 0, false
	}
	n := 0
	for _, c := range lit {
		n = n*10 + int(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}
