package ontology

// LoadNTriplesSerial exposes the serial reference loader to the external
// tests.
var LoadNTriplesSerial = loadNTriplesSerial

// LoadNTriplesWith is LoadNTriples with the worker count and chunk size
// given, so tests can put lines on every chunk boundary.
var LoadNTriplesWith = loadNTriples
