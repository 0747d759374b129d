/**
 * @file
 * JSON scalar emission shared by every document writer (sweep
 * results, metrics, traces, fault and churn metadata): the shortest
 * round-trip decimal form of a double and an escaped string literal.
 */

#ifndef FBFLY_COMMON_JSON_H
#define FBFLY_COMMON_JSON_H

#include <ostream>
#include <string>

namespace fbfly
{

/**
 * Shortest decimal form of @p x that parses back to the same double
 * ("0.3", not "0.29999999999999999"); NaN and infinities as "null".
 */
std::string jsonNumber(double x);

/** Write jsonNumber(@p x) to @p os. */
void jsonAppendNumber(std::ostream &os, double x);

/** Write @p s as a JSON string literal, escaping quotes,
 *  backslashes and control characters. */
void jsonAppendString(std::ostream &os, const std::string &s);

} // namespace fbfly

#endif // FBFLY_COMMON_JSON_H
