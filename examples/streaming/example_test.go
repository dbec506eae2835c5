package main

// Example runs the program: go test checks every line it prints.
func Example() {
	main()
	// Output:
	// single session: 16228 completed, 3772 rejected (rule1=441 rule2=3331)
	// 4 shards: 20000 jobs accounted across 4 outcomes
}
