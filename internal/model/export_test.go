package model

// Test-only exports for the external model_test package, which can import
// internal/datagen (package model's own tests cannot: datagen imports
// model).

// SameState compares node slices exactly and edges as canonical sets.
var SameState = sameState

// CheckIndex reports the first disagreement between a checker's maps and
// its state.
func (c *Checker) CheckIndex() error { return c.checkIndex() }
