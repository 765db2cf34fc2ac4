// Bench-only API (DESIGN §4l): only the frozen bench/ may use these names.

package hwsim

import (
	"errors"
	"fmt"

	"repro/internal/ring"
	"repro/internal/rns"
)

// VariantHPS is the HPS architecture, the one co-processor that executes.
const VariantHPS = 0

// ErrVariant refuses a co-processor of any variant but VariantHPS.
var ErrVariant = errors.New("hwsim: only the HPS co-processor executes; the traditional architecture is priced, not run")

// NewCoprocessor is New behind a variant argument that must be VariantHPS
// (else ErrVariant).
func NewCoprocessor(qmods, pmods []ring.Modulus, n int, ext *rns.Extender, sc *rns.ScaleRounder, variant int, timing Timing, slotCount int) (*Coprocessor, error) {
	if variant != VariantHPS {
		return nil, fmt.Errorf("%w (variant %d)", ErrVariant, variant)
	}
	return New(qmods, pmods, n, ext, sc, timing, slotCount)
}
