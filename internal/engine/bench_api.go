// Bench-only API (DESIGN §4l): only the frozen bench/ may use Config.Variant.

package engine

import (
	"fmt"

	"repro/internal/hwsim"
)

// checkVariant, the one reader of Config.Variant, refuses any variant but
// hwsim.VariantHPS.
func (c *Config) checkVariant() error {
	if c.Variant != hwsim.VariantHPS {
		return fmt.Errorf("engine: Config.Variant %d: %w", c.Variant, hwsim.ErrVariant)
	}
	return nil
}
