"""Approximation of positively curved surfaces by watertight assemblies
of planar vertex quads, cone strips and spherical faces."""

from .bspline import (BSplineSurface, PrincipalFrames, SurfaceJet2,
                      convex_paraboloid_patch, evaluate_jet, evaluate_jets,
                      load_surface, oriented_normal, oriented_normals,
                      principal_frame, principal_frames, project_points,
                      save_surface)
from .conjugacy import (ContactClass, CongruenceSpec, DualCurvature,
                        SpecialAngles, classify_contact,
                        dual_curvature_record, lconj_partner,
                        midsphere_radius, pseudo_lconj_partner,
                        pseudo_lconj_partners, special_angles)
from .errors import (AdmissibilityError, ConfigError, CurvatureSignError,
                     FlatError, LnetsError, SingularRadiusError,
                     TracingError, UmbilicError)
from .lnet import (LNet, VerifyReport, contact_incidences, initialize,
                   load_lnet, save_lnet, strip_incidences, verify)
from .optimize import (IterationRecord, ResidualSystem, Schedule, Weights,
                       assemble, lm_run)
from .remesh import (AngleField, FrameSample, GridSpec, QuadGrid, frame_at,
                     frame_field, theta_eval, trace_grid)
from .tessellate import LabeledMesh, TessellationParams, tessellate

__version__ = "0.1.0"
