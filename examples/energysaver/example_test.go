package main

// Example runs the program: go test checks every line it prints.
func Example() {
	main()
	// Output:
	// == energysaver: 800 weighted jobs, 3 machines, α=2 (solo LB 69365) ==
	// eps  wflow      energy   objective  ratio vs LB  rejected weight%  budget%
	// ---  ---------  -------  ---------  -----------  ----------------  -------
	// 0.1  1922238.5  15523.0  1937761.5  27.936       0.213             10
	// 0.2  777150.4   20550.5  797700.9   11.500       3.173             20
	// 0.4  266293.2   19696.3  285989.5   4.123        14.917            40
	// 0.6  129245.1   15725.8  144970.9   2.090        27.598            60
	//
	// The machine speed is frozen per execution at γ·(pending weight)^(1/α):
	// backlog raises speed (more energy), idle periods save it, and the
	// rejected weight never exceeds the ε budget of Theorem 2.
}
