"""Exact arithmetic for octahedral quartic fields over Q: principality,
central embedding problems in GL2(F9), and the correspondence with
degree-2 Q-curves."""

from types import ModuleType as _ModuleType

from .embedding import (DiscDecomposition, EmbeddingReport, EndoReport,
                        classify, decompose_discriminant, det_field,
                        endo_algebras, obstruction, splitting_obstruction)
from .errors import OctaqError
from .gl2f9 import classify_hjk, s4_conjugacy_scan, verify_subgroup_classification
from .hilbert import (INF, BrauerClass, brauer_class, class_product,
                      hilbert_symbol, witt_invariant_diagonal)
from .polynomials import (QQ, QuadElement, QuadField, UniPoly, discriminant,
                          poly_gcd, qpoly)
from .qcurve import (QCurveRecord, SymbolicContext, curve_from_t, family,
                     symbolic_suite, t_from_principal, tschirnhaus_to_torsion,
                     weil_restriction_factor)
from .quartic import (FieldCertificate, PrincipalQuartic, ReducedQuartic,
                      TraceFormData, depress, galois_is_S4, is_principal,
                      principalize, resolvent_cubic, same_field, trace_form,
                      tschirnhaus, witt_formula)
from .rationals import (IntegerFactorization, factorize, is_square,
                        squarefree_part)
from .tables import TableRow, load_bundled_corpus, parse_table, verify_table_row

__version__ = "0.1.0"

# the imported public names, not the submodules that importing them binds
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
