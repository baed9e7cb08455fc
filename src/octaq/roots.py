"""Empty: octaq computes no floating-point root and imports only the stdlib.
Kept because perfbench/tracer.py imports it for its ``roots`` layer, whose
metrics read 0 on every workload; ROADMAP item 3 deletes both."""
