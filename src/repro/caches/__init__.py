"""Cache structures: processor L1s, the CC-NUMA block cache, the S-COMA
page cache, and S-COMA's fine-grain access-control tags.

These are *state* containers — timing and coherence actions live in the
simulation engine and the directory.  All of them are deliberately
dict-based and allocation-light because they sit on the simulator's hot
path.
"""
