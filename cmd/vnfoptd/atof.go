// Copyright 2009, 2020 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file of the Go distribution.

// atof64exact and eiselLemire64 are strconv's (Go 1.24, atof.go and
// eisel_lemire.go): ParseFloat's two fast paths, in its order.

package main

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"sync"
)

// float64pow10 are the powers of ten a float64 holds exactly.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	1e20, 1e21, 1e22,
}

// atof64exact is Clinger's fast path: an exact integer times or over an
// exact power of ten is rounded once, so correctly.
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
	// Exact integers are <= 10^15.
	// Exact powers of ten are <= 10^22.
	case exp > 0 && exp <= 15+22: // int * 10^k
		// If exponent is big but number of digits is not,
		// can move a few zeros into the integer part.
		if exp > 22 {
			f *= float64pow10[exp-22]
			exp = 22
		}
		if f > 1e15 || f < -1e15 {
			// the exponent was really too large.
			return
		}
		return f * float64pow10[exp], true
	case exp < 0 && exp >= -22: // int / 10^k
		return f / float64pow10[-exp], true
	}
	return
}

const pow10Min, pow10Max = -348, 347 // the exponents detailedPow10 covers

// detailedPow10 is strconv's detailedPowersOfTen, {low, high}: the top
// 128 bits of 10^e, rounded down. Computed, not listed: 10^e by
// multiplication, 10^-e as 2^(n+127) / 10^e, n the bit length of 10^e.
// It is built on first use, not at package init: boot replay decodes
// binary rates and never reads it, so a restart does not pay for it.
var detailedPow10 = sync.OnceValue(func() *[pow10Max - pow10Min + 1][2]uint64 {
	t := pow10Table()
	return &t
})

func pow10Table() (t [pow10Max - pow10Min + 1][2]uint64) {
	var buf [16]byte
	set := func(e int, x *big.Int) {
		x.FillBytes(buf[:])
		t[e-pow10Min] = [2]uint64{binary.BigEndian.Uint64(buf[8:]), binary.BigEndian.Uint64(buf[:8])}
	}
	p, x, ten := big.NewInt(1), new(big.Int), big.NewInt(10)
	for e := 0; e <= -pow10Min; e++ {
		n := p.BitLen()
		if e <= pow10Max {
			set(e, x.Rsh(x.Lsh(p, 128), uint(n)))
		}
		if e > 0 {
			set(-e, x.Quo(x.Lsh(big.NewInt(1), uint(n+127)), p))
		}
		p.Mul(p, ten)
	}
	return t
}

// eiselLemire64 is Eisel–Lemire (arXiv:2101.11408); its comments name the
// sections of https://nigeltao.github.io/blog/2020/eisel-lemire.html.
func eiselLemire64(man uint64, exp10 int, neg bool) (f float64, ok bool) {

	// Exp10 Range.
	if man == 0 {
		if neg {
			f = math.Float64frombits(0x8000000000000000) // Negative zero.
		}
		return f, true
	}
	if exp10 < pow10Min || pow10Max < exp10 {
		return 0, false
	}

	pow := detailedPow10()

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, pow[exp10-pow10Min][1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[exp10-pow10Min][0])
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
	// retExp2 is a uint64: this is retExp2 <= 0 || retExp2 >= 0x7FF, a
	// subnormal, Inf or NaN.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}
