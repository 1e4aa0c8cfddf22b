"""Detection, classification, and verification of periodic orbits that are
born when a parameter perturbation destroys a line of equilibria at a point
with eigenvalues {0, +-i omega}.

Workflow: define a model (`models`), locate the distinguished point and build
the standard frame (`frame`), evaluate the reduced coefficients
(`coefficients`), classify the bifurcation (`classifier`), and verify the
predicted orbits against the full flow (`verify`).  The `eco` module carries
the two-predator/one-prey application with closed-form reference values.

Each name is imported from its own module (`hybridhopf.frame.locate_hopf_point`);
`import hybridhopf` loads none of them.
"""

__version__ = "0.1.0"
