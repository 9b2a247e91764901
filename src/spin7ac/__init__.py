"""Exact computations for Spin(7) deformation theory on asymptotically
conical manifolds: the Spin(7) linear algebra of R^8, the tangent/normal
splitting of nearby admissible 4-forms, homogeneous-form calculus on the
cone, critical-rate classification, the moduli dimension formula and the
homogeneous rigidity computation for the Bryant-Salamon metric."""
