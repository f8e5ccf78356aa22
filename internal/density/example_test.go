package density_test

import (
	"fmt"

	"atmatrix/internal/density"
	"atmatrix/internal/mat"
)

// ExampleEstimateProduct demonstrates the SpMacho probability-propagation
// estimator on a block-structured operand: a matrix with one fully dense
// block and one sparse block predicts a dense product block where the
// dense regions meet and (near-)zero elsewhere.
func ExampleEstimateProduct() {
	a := mat.NewCOO(8, 8)
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			a.Append(r, c, 1) // fully dense upper-left block
		}
	}
	a.Append(6, 6, 1) // one lonely element in the lower-right block

	m := density.FromCOO(a, 4)
	est := density.EstimateProduct(m, m)
	fmt.Printf("UL block: ρ̂ = %.3f\n", est.At(0, 0))
	fmt.Printf("UR block: ρ̂ = %.3f\n", est.At(0, 1))
	fmt.Printf("LR block: ρ̂ = %.3f\n", est.At(1, 1))
	// Output:
	// UL block: ρ̂ = 1.000
	// UR block: ρ̂ = 0.000
	// LR block: ρ̂ = 0.016
}
