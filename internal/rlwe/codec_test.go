package rlwe_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/ckks"
	"repro/internal/fv"
	"repro/internal/poly"
	"repro/internal/rlwe"
	"repro/internal/sampler"
)

// codecLayouts returns the two layouts the system runs — what fv and ckks
// hand the codec — at test or paper size.
func codecLayouts(t testing.TB, paper bool) []rlwe.Layout {
	t.Helper()
	fcfg, ccfg := fv.TestConfig(65537), ckks.TestConfig()
	if paper {
		fcfg, ccfg = fv.PaperConfig(65537), ckks.PaperConfig()
	}
	fp, err := fv.NewParams(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := ckks.NewParams(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	return []rlwe.Layout{fp.Wire(), cp.Wire()}
}

// levels lists the levels a fixture of layout l is built at: the one a plain
// layout has, and bottom, middle and top of a leveled chain.
func levels(l rlwe.Layout) []int {
	top := len(l.Mods) - 1
	if !l.Leveled {
		return []int{top}
	}
	return []int{0, top / 2, top}
}

const fixtureScale = 1.5 * (1 << 30)

// fixture is one ciphertext of uniformly random residues under l and its
// encoding.
func fixture(t testing.TB, l rlwe.Layout, count, level int) ([]poly.RNSPoly, float64, []byte) {
	t.Helper()
	prng := sampler.NewPRNG(uint64(16 + 8*count + level))
	els := make([]poly.RNSPoly, count)
	for i := range els {
		els[i] = sampler.UniformPoly(prng, l.Mods[:level+1], l.N)
	}
	scale := 0.0
	if l.Leveled {
		scale = fixtureScale
	}
	enc, err := rlwe.AppendTo(nil, els, l.Leveled, scale)
	if err != nil {
		t.Fatal(err)
	}
	if want := rlwe.HeaderLen(l.Leveled) + count*(level+1)*l.N*4; len(enc) != want {
		t.Fatalf("%s: AppendTo wrote %d bytes, want %d", l.Scheme, len(enc), want)
	}
	return els, scale, enc
}

func sameEls(a, b []poly.RNSPoly) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// poisoned is a recycled value: count elements over l's rows 0..level with
// every coefficient out of range.
func poisoned(l rlwe.Layout, count, level int) []poly.RNSPoly {
	els := make([]poly.RNSPoly, count)
	for i := range els {
		els[i] = poly.NewRNSPoly(l.Mods[:level+1], l.N)
		for _, row := range els[i].Rows {
			for j := range row.Coeffs {
				row.Coeffs[j] = ^uint64(0)
			}
		}
	}
	return els
}

// TestCodecPrimitivesAgree: AppendTo, WriteTo, Len, Check, Decode and
// ReadInto are one codec under both layouts — same bytes out, same value
// back, the encoded length reported by every reader, a prefix left alone by
// AppendTo and a suffix ignored by the byte-slice readers.
func TestCodecPrimitivesAgree(t *testing.T) {
	for _, l := range codecLayouts(t, false) {
		for _, level := range levels(l) {
			for count := 1; count <= 3; count++ {
				els, scale, enc := fixture(t, l, count, level)
				what := fmt.Sprintf("%s, %d elements at level %d", l.Scheme, count, level)
				var w bytes.Buffer
				if err := rlwe.WriteTo(&w, els, l.Leveled, scale); err != nil || !bytes.Equal(w.Bytes(), enc) {
					t.Fatalf("%s: WriteTo and AppendTo disagree (%v)", what, err)
				}
				withPrefix, err := rlwe.AppendTo([]byte("prefix"), els, l.Leveled, scale)
				if err != nil || !bytes.Equal(withPrefix, append([]byte("prefix"), enc...)) {
					t.Fatalf("%s: AppendTo disturbed its prefix (%v)", what, err)
				}
				if n, err := l.Len(enc[:rlwe.HeaderLen(l.Leveled)]); err != nil || n != len(enc) {
					t.Fatalf("%s: Len = (%d, %v), want (%d, nil)", what, n, err, len(enc))
				}
				padded := append(bytes.Clone(enc), 0xFF, 0xFF, 0xFF, 0xFF)
				if n, err := l.Check(padded); err != nil || n != len(enc) {
					t.Fatalf("%s: Check = (%d, %v), want (%d, nil)", what, n, err, len(enc))
				}
				var got []poly.RNSPoly
				if n, s, err := l.Decode(padded, &got); err != nil || n != len(enc) || s != scale || !sameEls(got, els) {
					t.Fatalf("%s: Decode = (%d, %g, %v), equal %v", what, n, s, err, sameEls(got, els))
				}
				var read []poly.RNSPoly
				if s, err := l.ReadInto(bytes.NewReader(enc), &read); err != nil || s != scale || !sameEls(read, els) {
					t.Fatalf("%s: ReadInto = (%g, %v), equal %v", what, s, err, sameEls(read, els))
				}
			}
		}
	}
	if _, err := rlwe.AppendTo(nil, nil, false, 0); err == nil {
		t.Error("AppendTo encoded a ciphertext without elements")
	}
	l := codecLayouts(t, false)[1]
	ragged := []poly.RNSPoly{poly.NewRNSPoly(l.Mods[:2], l.N), poly.NewRNSPoly(l.Mods[:3], l.N)}
	if _, err := rlwe.AppendTo(nil, ragged, true, fixtureScale); err == nil {
		t.Error("AppendTo encoded elements at two levels")
	}
}

// TestCodecValidation: one table of refused inputs over both layouts. Every
// check — degree, element count, level inside the chain, zero padding, a
// finite positive scale, every residue below its modulus wherever in a row
// the bad word sits, up to the last live row — refuses the same inputs with
// the same error through all three readers.
func TestCodecValidation(t *testing.T) {
	put := func(off int, v uint32) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint32(b[off:], v) }
	}
	put64 := func(off int, v uint64) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint64(b[off:], v) }
	}
	type tc struct {
		name   string
		mutate func([]byte)
		want   string // substring of the error
	}
	for _, l := range codecLayouts(t, false) {
		// Two elements, one level below the top of a leveled chain: the last
		// live row is then not the last row of the chain.
		level := len(l.Mods) - 1
		if l.Leveled {
			level--
		}
		_, _, enc := fixture(t, l, 2, level)
		n, hl := l.N, rlwe.HeaderLen(l.Leveled)
		cases := []tc{
			{"wrong degree", put(4, uint32(2*n)), "degree"},
			{"zero elements", put(0, 0), "element count 0"},
			{"four elements", put(0, 4), "element count 4"},
		}
		if l.Leveled {
			cases = append(cases,
				tc{"level one above the chain", put(8, uint32(len(l.Mods))), "outside chain"},
				tc{"level all ones", put(8, ^uint32(0)), "outside chain"},
				tc{"level one above the body", put(8, uint32(level+1)), io.ErrUnexpectedEOF.Error()},
				tc{"padding 0x5A", func(b []byte) { b[12] = 0x5A }, "padding"},
				tc{"padding high byte", func(b []byte) { b[15] = 1 }, "padding"},
				tc{"scale zero", put64(16, 0), "scale"},
				tc{"scale negative", put64(16, math.Float64bits(-fixtureScale)), "scale"},
				tc{"scale +Inf", put64(16, math.Float64bits(math.Inf(1))), "scale"},
				tc{"scale -Inf", put64(16, math.Float64bits(math.Inf(-1))), "scale"},
				tc{"scale NaN", put64(16, math.Float64bits(math.NaN())), "scale"},
			)
		}
		for e := 0; e < 2; e++ {
			for ri := 0; ri <= level; ri++ {
				row := hl + (e*(level+1)+ri)*n*4
				q := uint32(l.Mods[ri].Q)
				cases = append(cases,
					tc{"first word = q", put(row, q), "out of range"},
					tc{"last word = q", put(row+(n-1)*4, q), "out of range"},
					tc{"odd word all ones", put(row+4, ^uint32(0)), "out of range"},
				)
			}
		}
		for _, c := range cases {
			bad := bytes.Clone(enc)
			c.mutate(bad)
			var into, read []poly.RNSPoly
			_, checkErr := l.Check(bad)
			_, _, decodeErr := l.Decode(bad, &into)
			_, readErr := l.ReadInto(bytes.NewReader(bad), &read)
			for via, err := range map[string]error{"Check": checkErr, "Decode": decodeErr, "ReadInto": readErr} {
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Errorf("%s: %s through %s: error %v, want one mentioning %q", l.Scheme, c.name, via, err, c.want)
				}
			}
			if checkErr != nil && decodeErr != nil && checkErr.Error() != decodeErr.Error() {
				t.Errorf("%s: %s: Check says %q, Decode says %q", l.Scheme, c.name, checkErr, decodeErr)
			}
		}
		// The largest legal residue in the last word of the last live row is
		// accepted.
		ok := bytes.Clone(enc)
		put(len(ok)-4, uint32(l.Mods[level].Q-1))(ok)
		if _, err := l.Check(ok); err != nil {
			t.Errorf("%s: residue q-1 refused: %v", l.Scheme, err)
		}

		// Short buffers: inside the header, and anywhere inside the body.
		for _, cut := range []int{0, hl - 1, hl, hl + n*4, len(enc) - 1} {
			var into, read []poly.RNSPoly
			if _, err := l.Check(enc[:cut]); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("%s: Check of %d of %d bytes: %v, want io.ErrUnexpectedEOF", l.Scheme, cut, len(enc), err)
			}
			if _, _, err := l.Decode(enc[:cut], &into); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("%s: Decode of %d of %d bytes: %v, want io.ErrUnexpectedEOF", l.Scheme, cut, len(enc), err)
			}
			_, err := l.ReadInto(bytes.NewReader(enc[:cut]), &read)
			if want := map[bool]error{true: io.EOF, false: io.ErrUnexpectedEOF}[cut == 0]; !errors.Is(err, want) {
				t.Errorf("%s: ReadInto of %d of %d bytes: %v, want %v", l.Scheme, cut, len(enc), err, want)
			}
		}
	}
}

// TestCodecDecodeIntoDirty: a recycled value — more elements than the
// encoding, fewer, rows of another ring, a short row, another level, every
// coefficient poisoned — comes out of Decode equal to a newly read one, and
// rows that already fit are kept (that is the point of recycling), also the
// rows a higher-level value left behind a lower-level one.
func TestCodecDecodeIntoDirty(t *testing.T) {
	for _, l := range codecLayouts(t, false) {
		top := len(l.Mods) - 1
		level := levels(l)[len(levels(l))/2] // the plain layout's one level, the middle of a chain
		want, _, enc := fixture(t, l, 2, level)
		short := poisoned(l, 2, level)
		short[1].Rows[level].Coeffs = short[1].Rows[level].Coeffs[:l.N/2]
		foreign := rlwe.Layout{Mods: slices.Clone(l.Mods[:level+1]), N: l.N / 2}
		slices.Reverse(foreign.Mods)
		dirty := map[string][]poly.RNSPoly{
			"empty":          nil,
			"one element":    poisoned(l, 1, level),
			"same shape":     poisoned(l, 2, level),
			"three elements": poisoned(l, 3, level),
			"another ring":   poisoned(foreign, 2, level),
			"short row":      short,
		}
		if l.Leveled {
			dirty["level below"] = poisoned(l, 2, 0)
			dirty["level above"] = poisoned(l, 2, top)
		}
		for name, into := range dirty {
			var kept *uint64
			if name == "same shape" || name == "level above" {
				kept = &into[1].Rows[level].Coeffs[0]
			}
			if _, _, err := l.Decode(enc, &into); err != nil {
				t.Fatalf("%s: %s: %v", l.Scheme, name, err)
			}
			if !sameEls(into, want) {
				t.Errorf("%s: %s: decoded ciphertext differs from the encoded one", l.Scheme, name)
			}
			for e, el := range into {
				for ri, row := range el.Rows {
					if row.Mod.Q != l.Mods[ri].Q || len(row.Coeffs) != l.N {
						t.Errorf("%s: %s: element %d row %d kept a foreign shape", l.Scheme, name, e, ri)
					}
				}
			}
			if kept != nil && kept != &into[1].Rows[level].Coeffs[0] {
				t.Errorf("%s: %s: rows were reallocated instead of reused", l.Scheme, name)
			}
			if name != "level above" {
				continue
			}
			// Back up to the top: the rows the level-drop hid are still there.
			wantTop, _, encTop := fixture(t, l, 2, top)
			hidden := &into[0].Rows[:top+1][top].Coeffs[0]
			if _, _, err := l.Decode(encTop, &into); err != nil || !sameEls(into, wantTop) {
				t.Fatalf("%s: decode at the top after a lower level: %v", l.Scheme, err)
			}
			if hidden != &into[0].Rows[top].Coeffs[0] {
				t.Errorf("%s: rows above a lower-level value were not reused", l.Scheme)
			}
		}
	}
}

// FuzzCodec: under both layouts, Check accepts exactly what Decode and
// ReadInto accept, with the same length and the same error; an accepted input
// re-encodes to itself (it is the only encoding of its value); and decoding
// that encoding into a dirty value gives the value back.
func FuzzCodec(f *testing.F) {
	layouts := codecLayouts(f, false)
	for li, l := range layouts {
		for _, level := range levels(l) {
			_, _, enc := fixture(f, l, 2, level)
			f.Add(enc, li == 1)
			f.Add(enc[:len(enc)/2], li == 1)
			f.Add(append(bytes.Clone(enc), "trailing"...), li == 1)
			flipped := bytes.Clone(enc)
			flipped[len(enc)/3] ^= 0x40
			f.Add(flipped, li == 1)
			over := bytes.Clone(enc)
			copy(over[len(over)-4:], []byte{0xFF, 0xFF, 0xFF, 0xFF})
			f.Add(over, li == 1)
			if l.Leveled {
				padded := bytes.Clone(enc)
				padded[12] = 0x5A
				f.Add(padded, true)
			}
		}
	}
	f.Add([]byte{}, false)
	f.Add([]byte{2, 0, 0, 0}, true)

	f.Fuzz(func(t *testing.T, data []byte, leveled bool) {
		l := layouts[0]
		if leveled {
			l = layouts[1]
		}
		var els, read []poly.RNSPoly
		n, checkErr := l.Check(data)
		dn, scale, decodeErr := l.Decode(data, &els)
		rscale, readErr := l.ReadInto(bytes.NewReader(data), &read)
		if (checkErr == nil) != (decodeErr == nil) || (checkErr == nil) != (readErr == nil) {
			t.Fatalf("Check says %v, Decode %v, ReadInto %v", checkErr, decodeErr, readErr)
		}
		if checkErr != nil {
			if checkErr.Error() != decodeErr.Error() {
				t.Fatalf("Check refused with %q, Decode with %q", checkErr, decodeErr)
			}
			return
		}
		if n != dn || scale != rscale || !sameEls(els, read) {
			t.Fatalf("the three readers disagree on an accepted input: lengths %d/%d, scales %g/%g", n, dn, scale, rscale)
		}
		enc, err := rlwe.AppendTo(nil, els, l.Leveled, scale)
		if err != nil || !bytes.Equal(enc, data[:n]) {
			t.Fatalf("accepted input does not re-encode to itself (%v)", err)
		}
		again := poisoned(l, 3, len(l.Mods)-1)
		if _, s, err := l.Decode(enc, &again); err != nil || s != scale || !sameEls(again, els) {
			t.Fatalf("Decode∘AppendTo is not the identity (%v)", err)
		}
	})
}

// BenchmarkWire times the three whole-ciphertext primitives at the paper
// sets, one row per layout: bytes per second through the check a forwarding
// tier runs, the decode a node runs, and the encode.
func BenchmarkWire(b *testing.B) {
	for _, l := range codecLayouts(b, true) {
		els, scale, enc := fixture(b, l, 2, len(l.Mods)-1)
		b.Run(l.Scheme+"/check", func(b *testing.B) {
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				if _, err := l.Check(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(l.Scheme+"/decode", func(b *testing.B) {
			b.SetBytes(int64(len(enc)))
			var into []poly.RNSPoly
			for i := 0; i < b.N; i++ {
				if _, _, err := l.Decode(enc, &into); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(l.Scheme+"/append", func(b *testing.B) {
			b.SetBytes(int64(len(enc)))
			dst := make([]byte, 0, len(enc))
			for i := 0; i < b.N; i++ {
				if _, err := rlwe.AppendTo(dst, els, l.Leveled, scale); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
