package fv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/sampler"
)

// wireFixture is one encrypted ciphertext and its encoding.
func wireFixture(t *testing.T, els int) (*Params, *Ciphertext, []byte) {
	t.Helper()
	p := testParams(t, 65537)
	prng := sampler.NewPRNG(15)
	_, pk, _ := NewKeyGenerator(p, prng).GenKeys()
	pt := NewPlaintext(p)
	pt.Coeffs[0], pt.Coeffs[p.N()-1] = 7, 11
	ct := NewEncryptor(p, pk, prng).Encrypt(pt)
	for len(ct.Els) < els {
		ct.Els = append(ct.Els, ct.Els[0].Clone())
	}
	enc, err := ct.AppendTo(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != ct.ByteSize(p) {
		t.Fatalf("AppendTo wrote %d bytes, ByteSize says %d", len(enc), ct.ByteSize(p))
	}
	return p, ct, enc
}

// TestWirePrimitivesAgree: AppendTo, WriteTo, CheckCiphertext, Decode and
// ReadCiphertext are one codec — same bytes out, same value back, the
// encoded length reported by both readers, a prefix left alone by AppendTo
// and a suffix ignored by the byte-slice readers.
func TestWirePrimitivesAgree(t *testing.T) {
	for els := 1; els <= 3; els++ {
		p, ct, enc := wireFixture(t, els)
		var w bytes.Buffer
		if err := ct.WriteTo(&w, p); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.Bytes(), enc) {
			t.Fatalf("%d elements: WriteTo and AppendTo disagree", els)
		}
		withPrefix, err := ct.AppendTo([]byte("prefix"), p)
		if err != nil || !bytes.Equal(withPrefix, append([]byte("prefix"), enc...)) {
			t.Fatalf("%d elements: AppendTo disturbed its prefix (%v)", els, err)
		}
		padded := append(bytes.Clone(enc), 0xFF, 0xFF, 0xFF, 0xFF)
		if n, err := CheckCiphertext(padded, p); err != nil || n != len(enc) {
			t.Fatalf("%d elements: CheckCiphertext = (%d, %v), want (%d, nil)", els, n, err, len(enc))
		}
		got := new(Ciphertext)
		if n, err := got.Decode(padded, p); err != nil || n != len(enc) || !got.Equal(ct) {
			t.Fatalf("%d elements: Decode = (%d, %v), equal %v", els, n, err, got.Equal(ct))
		}
		read, err := ReadCiphertext(bytes.NewReader(enc), p)
		if err != nil || !read.Equal(ct) {
			t.Fatalf("%d elements: ReadCiphertext: %v", els, err)
		}
	}
}

// TestWireValidation: the three checks — degree, element count, every
// residue below its modulus — refuse the same inputs with the same error
// through all three readers, wherever in a row the bad word sits.
func TestWireValidation(t *testing.T) {
	p, _, enc := wireFixture(t, 2)
	n, k := p.N(), p.QBasis.K()
	put := func(off int, v uint32) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint32(b[off:], v) }
	}
	type tc struct {
		name   string
		mutate func([]byte)
		want   string // substring of the error
	}
	cases := []tc{
		{"wrong degree", put(4, uint32(2*n)), "degree"},
		{"zero elements", put(0, 0), "element count 0"},
		{"four elements", put(0, 4), "element count 4"},
	}
	for e := 0; e < 2; e++ {
		for ri := 0; ri < k; ri++ {
			row := ctHeaderLen + (e*k+ri)*n*4
			q := uint32(p.QMods[ri].Q)
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
		_, checkErr := CheckCiphertext(bad, p)
		_, decodeErr := new(Ciphertext).Decode(bad, p)
		_, readErr := ReadCiphertext(bytes.NewReader(bad), p)
		for via, err := range map[string]error{"CheckCiphertext": checkErr, "Decode": decodeErr, "ReadCiphertext": readErr} {
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s through %s: error %v, want one mentioning %q", c.name, via, err, c.want)
			}
		}
		if checkErr != nil && decodeErr != nil && checkErr.Error() != decodeErr.Error() {
			t.Errorf("%s: CheckCiphertext says %q, Decode says %q", c.name, checkErr, decodeErr)
		}
	}
	// The largest legal residue in the last word of the last row is accepted.
	ok := bytes.Clone(enc)
	put(len(ok)-4, uint32(p.QMods[k-1].Q-1))(ok)
	if _, err := CheckCiphertext(ok, p); err != nil {
		t.Errorf("residue q-1 refused: %v", err)
	}

	// Short buffers: inside the header, and anywhere inside the body.
	for _, cut := range []int{0, 7, ctHeaderLen, ctHeaderLen + n*4, len(enc) - 1} {
		if _, err := CheckCiphertext(enc[:cut], p); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("CheckCiphertext of %d of %d bytes: %v, want io.ErrUnexpectedEOF", cut, len(enc), err)
		}
		if _, err := new(Ciphertext).Decode(enc[:cut], p); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("Decode of %d of %d bytes: %v, want io.ErrUnexpectedEOF", cut, len(enc), err)
		}
		_, err := ReadCiphertext(bytes.NewReader(enc[:cut]), p)
		if want := map[bool]error{true: io.EOF, false: io.ErrUnexpectedEOF}[cut == 0]; !errors.Is(err, want) {
			t.Errorf("ReadCiphertext of %d of %d bytes: %v, want %v", cut, len(enc), err, want)
		}
	}
}

// TestDecodeIntoDirtyCiphertext: a recycled ciphertext — more elements than
// the encoding, fewer, rows of another ring, every coefficient poisoned —
// comes out of Decode equal to a freshly read one, and a well-shaped one
// keeps its rows (that is the point of recycling).
func TestDecodeIntoDirtyCiphertext(t *testing.T) {
	p, want, enc := wireFixture(t, 2)
	other, err := NewParams(TestConfig(257))
	if err != nil {
		t.Fatal(err)
	}
	poisoned := func(params *Params, els int) *Ciphertext {
		ct := NewCiphertext(params, els)
		for _, el := range ct.Els {
			for _, row := range el.Rows {
				for i := range row.Coeffs {
					row.Coeffs[i] = ^uint64(0)
				}
			}
		}
		return ct
	}
	short := poisoned(p, 2)
	short.Els[1].Rows[1].Coeffs = short.Els[1].Rows[1].Coeffs[:p.N()/2]
	for name, dirty := range map[string]*Ciphertext{
		"empty":          new(Ciphertext),
		"one element":    poisoned(p, 1),
		"same shape":     poisoned(p, 2),
		"three elements": poisoned(p, 3),
		"other moduli":   poisoned(other, 2),
		"short row":      short,
	} {
		var kept *uint64
		if name == "same shape" {
			kept = &dirty.Els[1].Rows[0].Coeffs[0]
		}
		if _, err := dirty.Decode(enc, p); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !dirty.Equal(want) {
			t.Errorf("%s: decoded ciphertext differs from the encoded one", name)
		}
		for e, el := range dirty.Els {
			for ri, row := range el.Rows {
				if row.Mod.Q != p.QMods[ri].Q || len(row.Coeffs) != p.N() {
					t.Errorf("%s: element %d row %d kept a foreign shape", name, e, ri)
				}
			}
		}
		if kept != nil && kept != &dirty.Els[1].Rows[0].Coeffs[0] {
			t.Errorf("%s: rows were reallocated instead of reused", name)
		}
	}
}

// BenchmarkWire times the three whole-ciphertext primitives at the paper
// set: bytes per second through the check a forwarding tier runs, the decode
// a node runs, and the encode.
func BenchmarkWire(b *testing.B) {
	p, err := NewParams(PaperConfig(65537))
	if err != nil {
		b.Fatal(err)
	}
	prng := sampler.NewPRNG(15)
	_, pk, _ := NewKeyGenerator(p, prng).GenKeys()
	ct := NewEncryptor(p, pk, prng).Encrypt(NewPlaintext(p))
	enc, err := ct.AppendTo(nil, p)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("check", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			if _, err := CheckCiphertext(enc, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		into := new(Ciphertext)
		for i := 0; i < b.N; i++ {
			if _, err := into.Decode(enc, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("append", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		dst := make([]byte, 0, len(enc))
		for i := 0; i < b.N; i++ {
			if _, err := ct.AppendTo(dst, p); err != nil {
				b.Fatal(err)
			}
		}
	})
}
