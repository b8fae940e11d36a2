package tree

// Fig2Rules hands the Figure 2 classifier to the package's external tests
// (equivalence_test.go), which check trees in their compiled form: package
// compiled imports tree, so those tests cannot live inside package tree.
var Fig2Rules = fig2Rules
