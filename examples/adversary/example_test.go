package main

// Example runs the program: go test checks every line it prints.
func Example() {
	main()
	// Output:
	// == Lemma 1 — immediate rejection is Ω(√Δ), algorithm A is O(1) ==
	// L (√Δ)     Δ     immediate/ADV  A(ε=0.5)/ADV
	// ---------  ----  -------------  -------------
	// 4          16    3.381          0.1753
	// 8          64    11.387         0.1688
	// 16         256   43.388         0.1672
	// 32         1024  171.389        0.1668
	//
	// == Lemma 2 — adaptive adversary vs greedy energy scheduler ==
	// alpha  jobs released  greedy energy  ADV budget  ratio   (α/9)^α    α^α
	// -----  -------------  -------------  ----------  ------  ---------  -----
	// 2      2              11.667         27          0.4321  0.04938    4
	// 3      3              79.333         81          0.9794  0.03704    27
	// 4      4              759.728        243         3.126   0.03902    256
	// 5      5              9328.9         729         12.797  0.05292    3125
	//
	// Each released job nests inside the window the algorithm just committed
	// to, forcing overlap after overlap; the adversary itself serves every
	// job at speed 1 with no overlap at all.
}
