package main

// Example runs the program: go test checks every line it prints.
func Example() {
	main()
	// Output:
	// executions:
	//   job 0 on machine 1: [0.0, 3.0)
	//   job 1 on machine 0: [1.0, 3.0)
	//   job 3 on machine 0: [3.0, 4.0)
	//   job 2 on machine 1: [3.0, 5.0)
	//   job 4 on machine 0: [4.0, 9.0)
	// total flow time: 16.0 (mean 3.20), rejected 0/5 jobs
	//
	// t=0                                                t=9
	// m0  ......111111111111333333444444444444444444444444444444
	// m1  000000000000000000222222222222........................
}
