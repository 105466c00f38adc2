"""domainlearn: active-learning simulation of domain-based access-control
policy administration, with query-cost ledgers checked against closed-form
bounds."""
