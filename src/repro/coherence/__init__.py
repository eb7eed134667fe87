"""Coherence machinery: MOESI line states, the inter-node directory
protocol, and refetch detection (the signal R-NUMA reacts to).
"""
