package nn

import (
	"encoding/gob"
	"fmt"
	"io"
)

// snapshot is the on-wire form of a parameter set.
type snapshot struct {
	Names  []string
	Shapes [][2]int
	Data   [][]float64
}

// SaveParams serializes parameter values (not gradients) to w. The
// parameter order and shapes define the schema; LoadParams validates
// them on restore.
func SaveParams(w io.Writer, params []*Param) error {
	s := snapshot{}
	for _, p := range params {
		s.Names = append(s.Names, p.Name)
		s.Shapes = append(s.Shapes, [2]int{p.Val.R, p.Val.C})
		d := make([]float64, len(p.Val.Data))
		copy(d, p.Val.Data)
		s.Data = append(s.Data, d)
	}
	if err := gob.NewEncoder(w).Encode(s); err != nil {
		return fmt.Errorf("nn: save params: %w", err)
	}
	return nil
}

// LoadParams restores values saved by SaveParams into params, which must
// have the same count, names and shapes.
func LoadParams(r io.Reader, params []*Param) error {
	var s snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return fmt.Errorf("nn: load params: %w", err)
	}
	if len(s.Shapes) != len(s.Names) || len(s.Data) != len(s.Names) {
		return fmt.Errorf("nn: corrupt snapshot: %d names, %d shapes, %d data arrays",
			len(s.Names), len(s.Shapes), len(s.Data))
	}
	if len(s.Names) != len(params) {
		return fmt.Errorf("nn: snapshot has %d params, model has %d", len(s.Names), len(params))
	}
	for i, p := range params {
		if s.Names[i] != p.Name {
			return fmt.Errorf("nn: param %d is %q in snapshot, %q in model", i, s.Names[i], p.Name)
		}
		if s.Shapes[i] != [2]int{p.Val.R, p.Val.C} {
			return fmt.Errorf("nn: param %q shape %v != model %dx%d",
				p.Name, s.Shapes[i], p.Val.R, p.Val.C)
		}
		if len(s.Data[i]) != len(p.Val.Data) {
			return fmt.Errorf("nn: param %q data length mismatch", p.Name)
		}
	}
	// Validate-then-commit: no partial restores.
	for i, p := range params {
		copy(p.Val.Data, s.Data[i])
	}
	return nil
}
