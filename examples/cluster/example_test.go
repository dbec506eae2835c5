package main

// Example runs the program: go test checks every line it prints.
func Example() {
	main()
	// Output:
	// == cluster: 2000 Pareto jobs, 8 unrelated machines, load 1.05 ==
	// policy                     mean flow  p99 flow  max flow  rejected%
	// -------------------------  ---------  --------  --------  ---------
	// paper A(ε=0.10)            10.914     54.721    373.490   9.100
	// paper A(ε=0.25)            4.832      25.009    48.116    28.050
	// greedy-SPT (no rejection)  54.062     692.863   998.044   0
	// FCFS                       493.850    1072.3    1462.6    0
	// speed-augmented [ESA'16]   14.913     119.212   342.902   14.800
	//
	// Rejecting a few percent of jobs collapses the tail that no-rejection
	// policies accumulate behind elephant jobs — the paper's core point.
}
