"""Numeric constants used across the library, collected in one place.

Every tolerance that the field algebra, the morph blend, or the simulator
relies on is defined here as a plain number, so it can be inspected and
the tests can check against the same values.  The library modules bind
them by name at import; none has a per-call override.
"""

# Construction / validation.
NORMAL_UNIT_TOL = 1e-12          # |normal| must be within this of 1
DEGENERATE_SEGMENT_LENGTH = 1e-12  # segments shorter than this are degenerate (m)

# Field evaluation.
ZERO_SET_TOL_SMOOTH = 1e-12      # |phi| on circle/plane/sphere boundaries
ZERO_SET_TOL_SEGMENT = 1e-9      # |phi| on segment interiors
NORMALIZATION_TOL = 1e-9         # | |grad phi| - 1 | on primitive boundaries
EQUIV_ASSOC_TOL = 1e-12          # pairwise vs n-ary equivalence agreement
GRAD_FD_STEP = 1e-5              # central finite-difference step (m)
GRAD_FD_REL_TOL = 1e-6           # forward-mode vs finite-difference relative error

# Morph blend.
BLEND_DEGENERACY_EPS = 1e-14     # |g1 + g2| below this is a degenerate blend
MORPH_COMPLETE_EPS = 1e-6        # schedule complete once ramp >= 1 - this

# Simulator.
SPRING_COINCIDENT_EPS = 1e-9     # spring endpoints closer than this get zero force (m)
CONTACT_COINCIDENT_EPS = 1e-12   # overlapping bodies with coincident centers (m)
CONTACT_SLIP_EPS = 1e-4          # slip speed below which friction ramps linearly (m/s)
CONTACT_SKIN_FRACTION = 0.25     # contact neighbour-list skin, as a fraction of the smallest radius
CONTACT_ROOM_MARGIN = 1e-9       # rounding margin of the no-contact certificate, as a fraction of r_i + r_j
PULSE_STEP_TOL = 1e-6            # a time this fraction of a step past a step's start counts as that step: a pulse fires before it, a run's duration ends at it
STABILITY_SAFETY = 0.2           # dt bound factor: dt <= STABILITY_SAFETY*sqrt(m_min/k_c)

# Grid sampling.
GRID_NODE_CAP = 10_000_000       # maximum number of grid nodes
