// Bench-only API (DESIGN §4l): only the frozen bench/ may use these names.

package fv

// MustParams is NewParams for known-good configurations; it panics on error.
func MustParams(cfg Config) *Params {
	p, err := NewParams(cfg)
	if err != nil {
		panic(err)
	}
	return p
}
