"""Video token compression testbed: a small transformer stack with swappable
temporal-fusion paths, a scripted motion-QA benchmark, and an ablation harness.
"""
