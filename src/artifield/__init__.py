"""Implicit neural fields of articulated objects, learned from posed images.

The pipeline: procedurally generate articulated scenes and posed renders
(worldgen), train a latent-conditioned neural field with differentiable
raymarching (neuralfield, raymarch, autodecoder), simulate object motion by
manipulating the articulation part of the latent code (artsim), and turn
predicted keypoint trajectories into gripper motions (planner).
"""

__version__ = "0.1.0"
