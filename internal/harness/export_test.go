package harness

// Fig4Config exposes one Figure 4 cell's configuration to the tests.
var Fig4Config = fig4Config
