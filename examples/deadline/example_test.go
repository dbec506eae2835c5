package main

// Example runs the program: go test checks every line it prints.
func Example() {
	main()
	// Output:
	// == deadline: 150 jobs, 2 machines, α=2, horizon 300 ==
	// slack  greedy energy  AVR energy  solo LB  greedy/LB  AVR/greedy  α^α bound
	// -----  -------------  ----------  -------  ---------  ----------  -----------
	// 1.200  2831.2         3051.5      1130.3   2.505      1.078       4
	// 2      2538.0         2663.5      695.960  3.647      1.049       4
	// 4      2268.4         2239.4      363.610  6.238      0.9872      4
	// 8      2478.4         2196.7      205.588  12.055     0.8864      4
	//
	// Tight windows (slack≈1) force high speeds — energy is dominated by
	// feasibility. With loose windows the greedy spreads load across slots
	// and machines, beating AVR's fixed full-window strategy.
}
